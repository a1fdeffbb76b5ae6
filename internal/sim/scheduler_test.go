package sim

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dist"
)

// scanScheduler is the bounded-bypass scheduler as it was before the
// least-recently-stepped order: every pick scans all alive processes for the
// most starved one. It is the reference the differential test holds
// RandomScheduler to — same picks, same modes, same rng draws.
type scanScheduler struct {
	rng      *rand.Rand
	NullProb float64
	MaxSkip  int

	lastStep [dist.MaxProcs + 1]int64
	tick     int64
	aliveKey dist.ProcSet
	scratch  []dist.ProcID
}

func (s *scanScheduler) Reseed(seed int64) {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(seed))
	} else {
		s.rng.Seed(seed)
	}
	s.tick = 0
	s.lastStep = [dist.MaxProcs + 1]int64{}
}

func (s *scanScheduler) Next(v *View) (Choice, bool) {
	if v.Alive != s.aliveKey {
		s.scratch = v.Alive.AppendMembers(s.scratch[:0])
		s.aliveKey = v.Alive
	}
	alive := s.scratch
	if len(alive) == 0 {
		return Choice{}, false
	}
	s.tick++
	maxSkip := s.MaxSkip
	if maxSkip <= 0 {
		maxSkip = 4 * v.N
	}
	var pick dist.ProcID
	var worst int64 = -1
	for _, p := range alive {
		age := s.tick - s.lastStep[p]
		if age > int64(maxSkip) && age > worst {
			worst, pick = age, p
		}
	}
	if pick == dist.None {
		pick = alive[s.rng.Intn(len(alive))]
	}
	s.lastStep[pick] = s.tick
	mode := DeliverAuto
	if v.HasPending(pick) && s.rng.Float64() < s.NullProb {
		mode = DeliverNone
	}
	return Choice{Proc: pick, Mode: mode}, true
}

// pendingOracle is a View.HasPending stand-in: a pure function of the
// process and the view's time, so both schedulers see identical answers.
type pendingOracle struct{ v *View }

func (o pendingOracle) has(p dist.ProcID) bool {
	h := uint64(p)*0x9E3779B97F4A7C15 ^ uint64(o.v.Now)*0xBF58476D1CE4E5B9
	return (h^h>>29)&3 != 0
}

// aliveWalk is a seeded random crash/recover trajectory over n processes:
// each tick flips one process with probability flip, so processes crash,
// stay down for a while (their lastStep goes stale) and recover.
type aliveWalk struct {
	rng   *rand.Rand
	n     int
	flip  float64
	alive dist.ProcSet
}

func (w *aliveWalk) next() dist.ProcSet {
	if w.rng.Float64() < w.flip {
		p := dist.ProcID(1 + w.rng.Intn(w.n))
		if w.alive.Contains(p) {
			w.alive = w.alive.Remove(p)
		} else {
			w.alive = w.alive.Add(p)
		}
	}
	return w.alive
}

// TestRandomSchedulerMatchesScan is the differential test of the O(1)
// least-recently-stepped order against the O(n) scan it replaced: over
// system sizes, MaxSkip settings, random crash/recover trajectories (with
// recoveries of processes whose lastStep went stale while they were down)
// and many Reseeds of the same two schedulers, the Choice streams and the
// rng states must be identical.
func TestRandomSchedulerMatchesScan(t *testing.T) {
	for _, n := range []int{1, 2, 5, 64, 256} {
		for _, maxSkip := range []int{0, 1, 3} {
			lrs := NewRandomScheduler(0)
			ref := &scanScheduler{NullProb: 0.25}
			lrs.MaxSkip, ref.MaxSkip = maxSkip, maxSkip
			steps := 2000 + 12*n
			for seed := int64(0); seed < 12; seed++ {
				lrs.Reseed(seed)
				ref.Reseed(seed)
				walk := aliveWalk{rng: rand.New(rand.NewSource(seed + 1000)), n: n, alive: dist.FullSet(n)}
				// Odd seeds run crash-free, even ones churn; every fourth
				// churns hard enough to empty small systems now and then.
				switch {
				case seed%4 == 0:
					walk.flip = 0.2
				case seed%2 == 0:
					walk.flip = 0.01
				}
				var v View
				v.N = n
				v.HasPending = pendingOracle{&v}.has
				for step := 0; step < steps; step++ {
					v.Now = dist.Time(step)
					v.Alive = walk.next()
					got, okGot := lrs.Next(&v)
					want, okWant := ref.Next(&v)
					if okGot != okWant || got.Proc != want.Proc || got.Mode != want.Mode {
						t.Fatalf("n=%d maxSkip=%d seed=%d step %d (alive %v): got (%v, p%d, mode %d), want (%v, p%d, mode %d)",
							n, maxSkip, seed, step, v.Alive, okGot, got.Proc, got.Mode, okWant, want.Proc, want.Mode)
					}
				}
				if a, b := lrs.rng.Int63(), ref.rng.Int63(); a != b {
					t.Fatalf("n=%d maxSkip=%d seed=%d: rng streams diverged", n, maxSkip, seed)
				}
			}
		}
	}
}

// TestRandomSchedulerStaleRecoveryIsForced pins the case the list must get
// right without a scan: a process that recovers after a long outage has the
// oldest lastStep of all, so it is the bypass candidate at once — even
// though processes that never stepped sit ahead of it by ProcID.
func TestRandomSchedulerStaleRecoveryIsForced(t *testing.T) {
	const n = 8
	s := NewRandomScheduler(3)
	s.MaxSkip = 2
	ref := &scanScheduler{NullProb: 0.25, MaxSkip: 2}
	ref.Reseed(3)
	var v View
	v.N = n
	v.HasPending = func(dist.ProcID) bool { return false }
	full := dist.FullSet(n)
	for step := 0; step < 400; step++ {
		v.Now = dist.Time(step)
		switch {
		case step < 40:
			v.Alive = full
		case step < 300:
			v.Alive = full.Remove(4).Remove(6)
		default:
			v.Alive = full
		}
		got, _ := s.Next(&v)
		want, _ := ref.Next(&v)
		if got.Proc != want.Proc {
			t.Fatalf("step %d: picked p%d, the scan picks p%d", step, got.Proc, want.Proc)
		}
		if step == 300 && got.Proc != 4 {
			t.Fatalf("step 300: the long-down p4 must be forced on recovery, got p%d", got.Proc)
		}
	}
}

// TestRandomSchedulerAllocationFree pins the scheduler's path at zero
// allocations: Reseed plus a full n=256 run through a crash and a recovery
// (both relink the order) allocates nothing.
func TestRandomSchedulerAllocationFree(t *testing.T) {
	const n = 256
	s := NewRandomScheduler(1)
	var v View
	v.N = n
	v.HasPending = pendingOracle{&v}.has
	full := dist.FullSet(n)
	seed := int64(0)
	allocs := testing.AllocsPerRun(5, func() {
		seed++
		s.Reseed(seed)
		for step := 0; step < 3000; step++ {
			v.Now = dist.Time(step)
			v.Alive = full
			if step >= 1000 && step < 2000 {
				v.Alive = full.Remove(17).Remove(200)
			}
			if _, ok := s.Next(&v); !ok {
				t.Fatal("scheduler ended a run with processes alive")
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("scheduler path allocates %.1f times per run, want 0", allocs)
	}
}

// BenchmarkRandomSchedulerNext times one pick on a failure-free system of n
// processes with messages pending everywhere (so the null-step draw runs).
func BenchmarkRandomSchedulerNext(b *testing.B) {
	for _, n := range []int{5, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			s := NewRandomScheduler(1)
			v := View{N: n, Alive: dist.FullSet(n), HasPending: func(dist.ProcID) bool { return true }}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				v.Now = dist.Time(i)
				s.Next(&v)
			}
		})
	}
}

// TestRandomSchedulerGrowsWithTheSystem reuses one scheduler, without
// Reseed, on a larger system mid-life: the per-process tables grow and the
// picks stay those of the scan.
func TestRandomSchedulerGrowsWithTheSystem(t *testing.T) {
	lrs := NewRandomScheduler(9)
	ref := &scanScheduler{NullProb: 0.25}
	ref.Reseed(9)
	var v View
	v.HasPending = pendingOracle{&v}.has
	for step := 0; step < 3000; step++ {
		v.N = 4
		if step >= 1000 {
			v.N = 70
		}
		v.Now = dist.Time(step)
		v.Alive = dist.FullSet(v.N)
		got, _ := lrs.Next(&v)
		want, _ := ref.Next(&v)
		if got.Proc != want.Proc || got.Mode != want.Mode {
			t.Fatalf("step %d (n=%d): got p%d mode %d, the scan picks p%d mode %d", step, v.N, got.Proc, got.Mode, want.Proc, want.Mode)
		}
	}
}
