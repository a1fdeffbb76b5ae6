// Package repro benchmarks every experiment of the reproduction: one
// benchmark per figure/claim of the paper (see DESIGN.md for the experiment
// index E1–E14 and the recorded baselines in CHANGES.md). Besides ns/op,
// each benchmark reports the simulator work it performed (steps/op,
// msgs/op), which is the meaningful cost measure for an interleaving-level
// simulation, and allocs/op, which is the hot-path regression tripwire: the
// runner itself is (near-)zero-allocation per step, so allocs/op tracks the
// per-run setup plus the automata's own allocations only.
//
// Simulation benchmarks construct one sim.Runner per configuration and
// Reset(seed) it per iteration, which is the intended sweep API: inboxes,
// step contexts and the scheduler are reused across all iterations.
package repro

import (
	"fmt"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/agreement"
	"repro/internal/consensus"
	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/fd"
	"repro/internal/hierarchy"
	"repro/internal/lattice"
	"repro/internal/register"
	"repro/internal/separation"
	"repro/internal/sim"
	"repro/internal/sweep"
)

func reportRun(b *testing.B, steps, msgs int64) {
	b.Helper()
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
	b.ReportMetric(float64(msgs)/float64(b.N), "msgs/op")
}

// newRunner fails the benchmark on configuration errors.
func newRunner(b *testing.B, cfg sim.Config) *sim.Runner {
	b.Helper()
	r, err := sim.NewRunner(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// BenchmarkFig2SetAgreement regenerates experiment E1: Figure 2 (set
// agreement from σ) across system sizes.
func BenchmarkFig2SetAgreement(b *testing.B) {
	for _, n := range []int{3, 5, 8, 12, 16} {
		b.Run(benchName("n", n), func(b *testing.B) {
			f := dist.NewFailurePattern(n)
			props := agreement.DistinctProposals(n)
			oracle, err := core.NewSigmaOracle(f, dist.NewProcSet(1, 2), 20, core.SigmaCanonical)
			if err != nil {
				b.Fatal(err)
			}
			r := newRunner(b, sim.Config{
				Pattern: f, History: oracle, Program: core.Fig2Program(props),
				Scheduler: sim.NewRandomScheduler(0), StopWhenDecided: true, DisableTrace: true,
			})
			var steps, msgs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := r.Reset(int64(i)).Run()
				if err != nil {
					b.Fatal(err)
				}
				if rep := agreement.Check(f, n-1, props, res); !rep.OK() {
					b.Fatal(rep)
				}
				steps += res.Steps
				msgs += res.MessagesSent
			}
			reportRun(b, steps, msgs)
		})
	}
}

// BenchmarkFig3Emulation regenerates experiment E2: σ from Σ{p,q}.
func BenchmarkFig3Emulation(b *testing.B) {
	const n = 5
	f := dist.CrashPattern(n, 4)
	pair := dist.NewProcSet(1, 2)
	r := newRunner(b, sim.Config{
		Pattern: f, History: fd.NewSigmaS(f, pair, 20), Program: core.Fig3Program(pair),
		Scheduler: sim.NewRandomScheduler(0), MaxSteps: 400, DisableTrace: true,
	})
	var steps, msgs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Reset(int64(i)).Run()
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
		msgs += res.MessagesSent
	}
	reportRun(b, steps, msgs)
}

// BenchmarkFig4KSetAgreement regenerates experiment E4: Figure 4 across the
// (n, k) grid.
func BenchmarkFig4KSetAgreement(b *testing.B) {
	for _, tc := range []struct{ n, k int }{{6, 1}, {6, 3}, {10, 2}, {10, 5}, {16, 4}} {
		b.Run(benchName("n", tc.n)+benchName("_k", tc.k), func(b *testing.B) {
			f := dist.NewFailurePattern(tc.n)
			props := agreement.DistinctProposals(tc.n)
			active := dist.RangeSet(1, dist.ProcID(2*tc.k))
			oracle, err := core.NewSigmaKOracle(f, active, 20, core.SigmaKCanonical)
			if err != nil {
				b.Fatal(err)
			}
			r := newRunner(b, sim.Config{
				Pattern: f, History: oracle, Program: core.Fig4Program(props),
				Scheduler: sim.NewRandomScheduler(0), StopWhenDecided: true, DisableTrace: true,
			})
			var steps, msgs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := r.Reset(int64(i)).Run()
				if err != nil {
					b.Fatal(err)
				}
				if rep := agreement.Check(f, tc.n-tc.k, props, res); !rep.OK() {
					b.Fatal(rep)
				}
				steps += res.Steps
				msgs += res.MessagesSent
			}
			reportRun(b, steps, msgs)
		})
	}
}

// BenchmarkFig5Emulation regenerates experiment E5: σ|X| from Σ_X.
func BenchmarkFig5Emulation(b *testing.B) {
	const n = 8
	f := dist.CrashPattern(n, 7)
	x := dist.RangeSet(1, 4)
	r := newRunner(b, sim.Config{
		Pattern: f, History: fd.NewSigmaS(f, x, 20), Program: core.Fig5Program(x),
		Scheduler: sim.NewRandomScheduler(0), MaxSteps: 400, DisableTrace: true,
	})
	var steps, msgs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Reset(int64(i)).Run()
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
		msgs += res.MessagesSent
	}
	reportRun(b, steps, msgs)
}

// BenchmarkFig6AntiOmega regenerates experiment E8: anti-Ω from σ.
func BenchmarkFig6AntiOmega(b *testing.B) {
	const n = 6
	f := dist.CrashPattern(n, 5)
	pair := dist.NewProcSet(1, 2)
	oracle, err := core.NewSigmaOracle(f, pair, 25, core.SigmaCanonical)
	if err != nil {
		b.Fatal(err)
	}
	r := newRunner(b, sim.Config{
		Pattern: f, History: oracle, Program: core.Fig6Program(),
		Scheduler: sim.NewRandomScheduler(0), MaxSteps: 800, DisableTrace: true,
	})
	var steps, msgs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Reset(int64(i)).Run()
		if err != nil {
			b.Fatal(err)
		}
		steps += res.Steps
		msgs += res.MessagesSent
	}
	reportRun(b, steps, msgs)
}

// BenchmarkLemma7Refutation regenerates experiment E3.
func BenchmarkLemma7Refutation(b *testing.B) {
	pair := dist.NewProcSet(1, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cert, err := separation.Lemma7(separation.Lemma7Config{
			N: 4, Candidate: separation.HeartbeatCandidate(pair, 8), Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if cert.Property != "intersection" {
			b.Fatalf("unexpected certificate: %s", cert)
		}
	}
}

// BenchmarkLemma11Refutation regenerates experiment E6.
func BenchmarkLemma11Refutation(b *testing.B) {
	x := dist.RangeSet(1, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cert, err := separation.Lemma11(separation.Lemma11Config{
			N: 6, K: 2, Candidate: separation.HeartbeatSetCandidate(x, 8), Seed: int64(i),
		})
		if err != nil {
			b.Fatal(err)
		}
		if cert.Property == "" {
			b.Fatal("missing certificate")
		}
	}
}

// BenchmarkLemma15Refutation regenerates experiment E9.
func BenchmarkLemma15Refutation(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cert, err := separation.Lemma15(separation.Lemma15Config{
			N: 5, Candidate: separation.EagerMinCandidate(6),
		})
		if err != nil {
			b.Fatal(err)
		}
		if cert.Property != "agreement" {
			b.Fatalf("unexpected certificate: %s", cert)
		}
	}
}

// BenchmarkTightness regenerates experiment E7.
func BenchmarkTightness(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cert, err := separation.Tightness(separation.TightnessConfig{N: 8, K: 3, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if cert.Property != "agreement" {
			b.Fatalf("unexpected certificate: %s", cert)
		}
	}
}

// BenchmarkFigure1Lattice regenerates experiment E10: the whole lattice.
func BenchmarkFigure1Lattice(b *testing.B) {
	for _, n := range []int{4, 6, 8} {
		b.Run(benchName("n", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := lattice.Build(lattice.Config{N: n, RunsPerRelation: 2, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMajoritySigma regenerates experiment E11: Σ from a correct
// majority.
func BenchmarkMajoritySigma(b *testing.B) {
	for _, n := range []int{3, 5, 9, 15} {
		b.Run(benchName("n", n), func(b *testing.B) {
			f := dist.NewFailurePattern(n)
			r := newRunner(b, sim.Config{
				Pattern:   f,
				History:   sim.HistoryFunc(func(dist.ProcID, dist.Time) any { return nil }),
				Program:   fd.MajoritySigmaProgram(f.All()),
				Scheduler: sim.NewRandomScheduler(0), MaxSteps: 1000, DisableTrace: true,
			})
			var steps, msgs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := r.Reset(int64(i)).Run()
				if err != nil {
					b.Fatal(err)
				}
				steps += res.Steps
				msgs += res.MessagesSent
			}
			reportRun(b, steps, msgs)
		})
	}
}

// BenchmarkABDRegister regenerates experiment E12: ABD operations per run.
func BenchmarkABDRegister(b *testing.B) {
	const n = 5
	f := dist.NewFailurePattern(n)
	s := dist.NewProcSet(1, 2)
	base := make([][]register.Op, n)
	base[0] = []register.Op{{Kind: register.WriteOp}, {Kind: register.ReadOp}, {Kind: register.WriteOp}}
	base[1] = []register.Op{{Kind: register.ReadOp}, {Kind: register.WriteOp}, {Kind: register.ReadOp}}
	scripts := register.UniqueWrites(base)
	prog, err := register.Program(s, scripts)
	if err != nil {
		b.Fatal(err)
	}
	r := newRunner(b, sim.Config{
		Pattern: f, History: fd.NewSigmaS(f, s, 15), Program: prog,
		Scheduler: sim.NewRandomScheduler(0), MaxSteps: 60_000,
		StopWhen: func(sn *sim.Snapshot) bool {
			for _, p := range s.Members() {
				node, ok := sn.Automaton(p).(*register.Node)
				if !ok || !node.Done() {
					return false
				}
			}
			return true
		},
	})
	var steps, msgs int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Reset(int64(i)).Run()
		if err != nil {
			b.Fatal(err)
		}
		ops := register.ExtractOps(res.Trace)
		ok, err := register.CheckLinearizable(ops, 0)
		if err != nil || !ok {
			b.Fatalf("linearizability: ok=%v err=%v", ok, err)
		}
		steps += res.Steps
		msgs += res.MessagesSent
	}
	reportRun(b, steps, msgs)
}

// BenchmarkStore regenerates experiments E17–E23 on the keyed register
// store: one zipf-skewed keyed workload, completed client operations per
// second of wall clock as the headline metric. E17 is throughput vs the
// client pipelining window (window > 1 must strictly beat window = 1 on the
// same seed set). E19 shards the same key space across disjoint replica
// groups at the E17 window=8 operating point: replica-bytes/node must shrink
// with the shard count (each process only replicates its own shard) while
// shards=1 stays within noise of E17's window=8 row. E18 and E20, the
// one-message-per-request batching ablations, are retired: they lost on
// every metric and the unbatched path is gone. E21 is the allocation
// trajectory of the pooled hot path, read off every row's allocs/op (the
// steady-state-zero tripwire is TestStoreAllocsPerStep); E22 turns reply
// piggybacking on at the E19 operating points — msgs/op must fall strictly
// below the matching E19 row, every entry kind for one destination folded
// into one frame per step; E23 runs a whole-group shard crash and compares
// a fixed window against the AIMD per-shard controller on healthy-shard
// throughput.
// E24 turns the adversarial network on (loss, duplication, bounded extra
// delay) with retransmission armed: every op must still complete, and the
// price shows up as retransmits/op, drops/op and dups/op. E25 adds a
// scripted partition that heals mid-run on top of the E24 faults — parked
// ops resume after the heal, so completion stays total.
// E26–E28 trade tail latency for msgs/op with bounded-delay cross-step
// coalescing (every store row now also reports lat_p50/p99/p999 in client
// steps): E26 sweeps the delay budget D ∈ {0, 2, 8} closed-loop at the E22
// shards=4 piggyback operating point (D=0 must match that row exactly); E27
// repeats it under open-loop arrivals at roughly 80% of closed-loop capacity
// (gap 5, jittered), where under-filled frames give coalescing traffic to
// merge; E28 pushes the arrival rate past capacity (gap 2) so queueing
// delay dominates the measured-from-arrival latency and the msgs/op saving
// is at its largest.
// E31–E33 are the fast-read experiments: E31 is the headline claim — on a
// read-heavy zipf workload (write ratio 0.1, failure-free) one-phase reads
// cut msgs/op ≥ 30% and read p50 to half or less vs the identical
// FastReads=false row; E32 turns the E25 adversarial network (loss + dup +
// healing partition) on under fast reads, where broken unanimity exercises
// the write-back fallback and the clean/faulted latency split prices it;
// E33 is fast reads at the E29 scale point (n=128, 16 shard groups) under
// the same faults.
// E35 is the crash-recovery row: replica p5 crashes at t=40, loses its
// volatile state, and rejoins at t=120 as a learner under the shared
// E35–E37 adversarial network (loss + dup + delay + a one-way partition
// healing at t=150) — every client op still completes and the recovered
// replica repopulates purely through protocol traffic.
func BenchmarkStore(b *testing.B) {
	const keys = 12
	run := func(name string, row storeRow) {
		b.Run(name, func(b *testing.B) { runStoreRow(b, row) })
	}
	// row is the n=5 operating point every E17–E28/E31 row shares: clients
	// p1..p3, 12 ops each on the generator's default read/write mix.
	row := func(cfg register.StoreConfig) storeRow {
		return storeRow{
			n: 5, s: dist.RangeSet(1, 3), cfg: cfg,
			ops: 12, writeRatio: -1, skew: 1.3, wlSeed: 42, stab: 15, maxSteps: 500_000,
		}
	}
	// E17: throughput vs pipelining window.
	for _, w := range []int{1, 2, 4, 8} {
		run(benchName("window", w), row(register.StoreConfig{Keys: keys, Window: w}))
	}
	// E19: replica state and throughput vs shard count at window=8
	// (shards=1 doubles as the E17 window=8 parity check).
	for _, sc := range []int{1, 2, 4} {
		run(benchName("shards", sc), row(register.StoreConfig{Keys: keys, Shards: sc, Window: 8}))
	}
	// E22: reply piggybacking at the E19 operating points — msgs/op must
	// fall strictly below the matching E19 rows.
	run("shards=1-piggyback", row(register.StoreConfig{Keys: keys, Window: 8, Piggyback: true}))
	run("shards=4-piggyback", row(register.StoreConfig{Keys: keys, Shards: 4, Window: 8, Piggyback: true}))
	// E23: healthy-shard throughput under a whole-group crash, fixed
	// window vs the adaptive controller at the same start window: the
	// controller grows the healthy shard toward the cap (2× start) and
	// decays the dead shard to 1 instead of pinning client effort. Shard 1's
	// whole group ({p2, p4}) is dead from the start and every client sits
	// in shard 0's surviving group, so only shard-0 ops can complete.
	crashShard := func(cfg register.StoreConfig) storeRow {
		r := row(cfg)
		r.s = dist.NewProcSet(1, 3, 5)
		r.crash = func(f *dist.FailurePattern, m *register.ShardMap) {
			for _, p := range m.Group(1).Members() {
				f.CrashAt(p, 0)
			}
		}
		return r
	}
	run("crashshard-fixed", crashShard(register.StoreConfig{Keys: keys, Shards: 2, Window: 2}))
	run("crashshard-adaptive", crashShard(register.StoreConfig{Keys: keys, Shards: 2, Window: 2, AdaptiveWindow: true, MaxWindow: 4}))
	// E26: the delay budget closed-loop at the E22 shards=4 piggyback point
	// (coalesce=0 must reproduce that row bit for bit).
	for _, d := range []int{0, 2, 8} {
		run(benchName("coalesce", d), row(register.StoreConfig{
			Keys: keys, Shards: 4, Window: 8, Piggyback: true, CoalesceDelay: d,
		}))
	}
	// E27: open-loop arrivals at ~80% of closed-loop capacity.
	for _, d := range []int{0, 2, 8} {
		run(benchName("openloop-coalesce", d), row(register.StoreConfig{
			Keys: keys, Shards: 4, Window: 8, Piggyback: true, CoalesceDelay: d,
			OpenLoop: true, ArrivalGap: 5, ArrivalJitter: true,
		}))
	}
	// E28: open-loop overload — arrivals faster than the store can serve.
	for _, d := range []int{0, 2, 8} {
		run(benchName("overload-coalesce", d), row(register.StoreConfig{
			Keys: keys, Shards: 4, Window: 8, Piggyback: true, CoalesceDelay: d,
			OpenLoop: true, ArrivalGap: 2, ArrivalJitter: true,
		}))
	}
	// E31: the fast-read operating point — read-heavy zipf (write ratio
	// 0.1), failure-free, at the E22 shards=4 piggyback configuration. The
	// on row elides the write-back round on (nearly) every read.
	readHeavy := func(fastReads bool) storeRow {
		r := row(register.StoreConfig{Keys: keys, Shards: 4, Window: 8, Piggyback: true, FastReads: fastReads})
		r.writeRatio = 0.1
		return r
	}
	run("readheavy-fastread-off", readHeavy(false))
	run("readheavy-fastread-on", readHeavy(true))
	// E29/E30: the multi-word scale points — systems past the old 64-process
	// ceiling, 8-replica shard groups, the E24-style network (3% loss, 3%
	// dup, up to 3 ticks of extra delay and a partition cutting group 0 off
	// group 1 during [60, 300) before healing) with retransmission and
	// adaptive windows armed. One client per shard group.
	scale := func(n, shards, ops int, fastReads bool) storeRow {
		return storeRow{
			n: n, s: dist.RangeSet(1, dist.ProcID(shards)),
			cfg: register.StoreConfig{
				Keys: 64, Shards: shards, Window: 2,
				AdaptiveWindow: true, MaxWindow: 6, StallSteps: 8,
				Retransmit: true, RTO: 24, MaxRTO: 96,
				FastReads: fastReads,
			},
			ops: ops, writeRatio: -1, skew: 1.2, wlSeed: 808,
			faults: func(m *register.ShardMap) *sim.FaultPlan {
				return &sim.FaultPlan{
					Seed: 7, Loss: 0.03, Dup: 0.03, MaxDelay: 3,
					Partitions: []dist.Partition{{A: m.Group(0), B: m.Group(1), From: 60, Until: 300}},
				}
			},
			stab: 20, maxSteps: 2_000_000,
		}
	}
	run("scale-n=128-shards=16", scale(128, 16, 4, false))
	run("scale-n=256-shards=32", scale(256, 32, 3, false))
	// E33: fast reads at the n=128 scale point under the same adversarial
	// network — unanimity breaks across 8-replica groups, so the elision
	// rate here is the realistic one, not the failure-free ceiling.
	run("scale-n=128-shards=16-fastread", scale(128, 16, 4, true))
	// E24: lossy, duplicating, delaying network (5% loss, 5% dup, up to 3
	// ticks of extra delay) with retransmission armed. E25 adds a partition
	// between shard groups 1 and 2 during [50, 400) that heals, so parked
	// ops must resume and complete.
	faults := func(fastReads, partition bool) storeRow {
		r := row(register.StoreConfig{Keys: keys, Shards: 4, Window: 8, Retransmit: true, RTO: 16, FastReads: fastReads})
		r.faults = func(m *register.ShardMap) *sim.FaultPlan {
			fp := &sim.FaultPlan{Seed: 7, Loss: 0.05, Dup: 0.05, MaxDelay: 3}
			if partition {
				fp.Partitions = []dist.Partition{{A: m.Group(1), B: m.Group(2), From: 50, Until: 400}}
			}
			return fp
		}
		return r
	}
	run("faults-loss", faults(false, false))
	run("faults-partition", faults(false, true))
	// E32: fast reads on the E25 network — loss and the partition break
	// phase-1 unanimity, so completion leans on the write-back fallback and
	// the confirmed-timestamp rescue; fastreads/op and fallbacks/op report
	// how often each fired, and the clean/faulted split prices the fallback.
	run("faults-partition-fastread", faults(true, true))
	// E35: replica crash + volatile-state loss + recovery under the shared
	// E35–E37 adversarial network. The n=6/shards=3 store (groups {1,4},
	// {2,5}, {3,6}) loses p5 at t=40 and gets it back at t=120 with its
	// shard-1 timestamps, values and confirmed marks wiped. The one-way
	// partition parks shard-1 operations past the recovery, so the rejoined
	// replica sees live quorum traffic and must have repopulated when the
	// run stops.
	recovery := row(register.StoreConfig{
		Keys: keys, Shards: 3, Window: 2, Piggyback: true, Retransmit: true, RTO: 16,
	})
	recovery.n, recovery.ops = 6, 10
	recovery.crash = func(f *dist.FailurePattern, _ *register.ShardMap) {
		f.CrashAt(5, 40)
		f.RecoverAt(5, 120)
	}
	recovery.faults = func(*register.ShardMap) *sim.FaultPlan { return sharedAdversary() }
	recovery.check = func(res *sim.Result) error {
		if res.Automata[4].(*register.StoreNode).ReplicaStateBytes() == 0 {
			return fmt.Errorf("recovered p5 holds no replica state — the wipe was never repopulated")
		}
		return nil
	}
	run("faults-recovery", recovery)
}

// storeRow is one BenchmarkStore row: the system and store configuration,
// the workload shape, the crash/recovery pattern and fault plan it runs
// under, the Σ_S stabilization time and step budget of each run, and an
// optional extra per-run check.
type storeRow struct {
	n          int
	s          dist.ProcSet
	cfg        register.StoreConfig
	ops        int     // scripted ops per client
	writeRatio float64 // -1: the generator's default mix
	skew       float64
	wlSeed     int64
	crash      func(f *dist.FailurePattern, m *register.ShardMap) // nil: no crash
	faults     func(m *register.ShardMap) *sim.FaultPlan          // nil: reliable network
	stab       dist.Time
	maxSteps   int64
	check      func(res *sim.Result) error // nil: none
}

// runStoreRow runs one row for b.N scheduler seeds. Each run stops once the
// correct clients have finished their work on the available shards, and
// must complete exactly those ops — an op bound for a shard whose whole
// group crashed can never finish and stays pending by design. Every row
// reports the same metrics: ops/sec over the guaranteed completions,
// msgs/op and steps/op per run, the fault price per completed op, replica
// state per node and the latency tail; the clean/faulted split appears once
// some op paid a retransmit, the fast-read counters once a read was fast.
func runStoreRow(b *testing.B, row storeRow) {
	m, err := row.cfg.ShardMap(row.n)
	if err != nil {
		b.Fatal(err)
	}
	f := dist.NewFailurePattern(row.n)
	if row.crash != nil {
		row.crash(f, m)
	}
	var fp *sim.FaultPlan
	if row.faults != nil {
		fp = row.faults(m)
	}
	scripts, err := register.GenerateStoreWorkload(register.StoreWorkloadConfig{
		N: row.n, S: row.s, Keys: row.cfg.Keys, Shards: row.cfg.Shards, OpsPerClient: row.ops,
		WriteRatio: row.writeRatio, Skew: row.skew, Seed: row.wlSeed,
	})
	if err != nil {
		b.Fatal(err)
	}
	clients, avail := row.s.Intersect(f.Correct()), m.Available(f.Correct())
	want := 0
	for _, p := range clients.Members() {
		for _, op := range scripts[p-1] {
			if avail.Has(m.Shard(op.Key)) {
				want++
			}
		}
	}
	prog, err := register.StoreProgram(row.n, row.s, row.cfg, scripts)
	if err != nil {
		b.Fatal(err)
	}
	r := newRunner(b, sim.Config{
		Pattern: f, History: fd.NewSigmaS(f, row.s, row.stab), Program: prog,
		Scheduler: sim.NewRandomScheduler(0), MaxSteps: row.maxSteps, DisableTrace: true,
		Faults: fp,
		StopWhen: func(sn *sim.Snapshot) bool {
			return register.StoreClientsDoneOn(sn, clients, avail)
		},
	})
	var steps, msgs, completed, retransmits, drops, dups, fastReads, fallbacks, replicaBytes int64
	var lat, clean, faulted sweep.Hist
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := r.Reset(int64(i)).Run()
		if err != nil {
			b.Fatal(err)
		}
		done := 0
		replicaBytes = 0
		for _, a := range res.Automata {
			if node, ok := a.(*register.StoreNode); ok {
				done += node.CompletedOps()
				retransmits += node.Retransmits()
				replicaBytes += int64(node.ReplicaStateBytes())
				fastReads += node.FastReads()
				fallbacks += node.ReadFallbacks()
				lat.Merge(node.LatencyHist())
				clean.Merge(node.CleanLatencyHist())
				faulted.Merge(node.FaultedLatencyHist())
			}
		}
		if done != want {
			b.Fatalf("seed %d completed %d ops, want exactly the %d guaranteed ones (%s)", i, done, want, res.Reason)
		}
		if row.check != nil {
			if err := row.check(res); err != nil {
				b.Fatalf("seed %d: %v", i, err)
			}
		}
		completed += int64(done)
		steps += res.Steps
		msgs += res.MessagesSent
		drops += res.MessagesDropped
		dups += res.MessagesDuplicated
	}
	b.StopTimer()
	perOp := func(v int64) float64 { return float64(v) / float64(completed) }
	b.ReportMetric(float64(completed)/b.Elapsed().Seconds(), "ops/sec")
	b.ReportMetric(perOp(retransmits), "retransmits/op")
	b.ReportMetric(perOp(drops), "drops/op")
	b.ReportMetric(perOp(dups), "dups/op")
	b.ReportMetric(float64(replicaBytes)/float64(row.n), "replica-B/node")
	reportRun(b, steps, msgs)
	// Latencies are schedule-determined (seeds 0..b.N-1), so at a fixed
	// iteration count the percentiles are exactly reproducible — they can be
	// regression-gated like msgs/op, unlike wall-clock metrics.
	b.ReportMetric(float64(lat.Quantile(0.50)), "lat_p50_steps")
	b.ReportMetric(float64(lat.Quantile(0.99)), "lat_p99_steps")
	b.ReportMetric(float64(lat.Quantile(0.999)), "lat_p999_steps")
	if faulted.Count > 0 { // on clean rows the split would duplicate the total
		b.ReportMetric(float64(clean.Quantile(0.50)), "lat_clean_p50_steps")
		b.ReportMetric(float64(clean.Quantile(0.99)), "lat_clean_p99_steps")
		b.ReportMetric(float64(faulted.Quantile(0.50)), "lat_faulted_p50_steps")
		b.ReportMetric(float64(faulted.Quantile(0.99)), "lat_faulted_p99_steps")
	}
	if fastReads > 0 || fallbacks > 0 {
		b.ReportMetric(perOp(fastReads), "fastreads/op")
		b.ReportMetric(perOp(fallbacks), "fallbacks/op")
	}
}

// sharedAdversary is the network the E35 store row and the E36/E37 consensus
// rows all run under — the SAME sim.FaultPlan value, so msgs/op (sharing)
// and msgs/decision (agreeing) are directly comparable on one adversary: 5%
// loss, 5% duplication, up to 2 ticks of extra delay, and a one-way
// partition cutting {p1,p3} off from p2 during [30, 150) before healing.
func sharedAdversary() *sim.FaultPlan {
	return &sim.FaultPlan{
		Seed: 7, Loss: 0.05, Dup: 0.05, MaxDelay: 2,
		Partitions: []dist.Partition{{
			A: dist.NewProcSet(1, 3), B: dist.NewProcSet(2), From: 30, Until: 150, OneWay: true,
		}},
	}
}

// BenchmarkConsensus regenerates experiment E13: the Ω+Σ baseline.
func BenchmarkConsensus(b *testing.B) {
	for _, n := range []int{3, 5, 9} {
		b.Run(benchName("n", n), func(b *testing.B) {
			f := dist.NewFailurePattern(n)
			props := agreement.DistinctProposals(n)
			r := newRunner(b, sim.Config{
				Pattern: f, History: consensus.NewOracle(f, 25), Program: consensus.Program(props),
				Scheduler: sim.NewRandomScheduler(0), MaxSteps: 200_000,
				StopWhenDecided: true, DisableTrace: true,
			})
			var steps, msgs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := r.Reset(int64(i)).Run()
				if err != nil {
					b.Fatal(err)
				}
				if rep := agreement.Check(f, 1, props, res); !rep.OK() {
					b.Fatal(rep)
				}
				steps += res.Steps
				msgs += res.MessagesSent
			}
			reportRun(b, steps, msgs)
		})
	}
}

// BenchmarkConsensusFaults regenerates experiments E36/E37: the Ω+Σ
// consensus baseline under the IDENTICAL adversarial network as the E35
// store row (sharedAdversary) — the paper's title contrast priced on one
// fault plan: agreeing pays msgs/decision once per process, sharing pays
// msgs/op per operation, and both numbers come off the same loss, dup,
// delay and one-way partition schedule. E36 runs the fault-free pattern
// (all six processes must decide once the partition heals at t=150); E37
// crashes p5 at t=40 and recovers it at t=200 with its volatile state
// wiped, so the run ends only when the recovered process has relearned the
// decision from the periodic decide re-broadcast.
func BenchmarkConsensusFaults(b *testing.B) {
	const n = 6
	run := func(b *testing.B, f *dist.FailurePattern) {
		props := agreement.DistinctProposals(n)
		target := f.Correct().Union(f.Recovering())
		r := newRunner(b, sim.Config{
			Pattern: f, History: consensus.NewOracle(f, 25), Program: consensus.Program(props),
			Scheduler: sim.NewRandomScheduler(0), MaxSteps: 200_000, DisableTrace: true,
			Faults: sharedAdversary(),
			StopWhen: func(sn *sim.Snapshot) bool {
				return target.AllSatisfy(func(p dist.ProcID) bool {
					_, ok := sn.Decided(p)
					return ok
				})
			},
		})
		var steps, msgs, decisions, drops, dups int64
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := r.Reset(int64(i)).Run()
			if err != nil {
				b.Fatal(err)
			}
			if rep := agreement.Check(f, 1, props, res); !rep.OK() {
				b.Fatal(rep)
			}
			if len(res.Decisions) < target.Len() {
				b.Fatalf("seed %d: %d of %d target processes decided (%s)",
					i, len(res.Decisions), target.Len(), res.Reason)
			}
			decisions += int64(len(res.Decisions))
			steps += res.Steps
			msgs += res.MessagesSent
			drops += res.MessagesDropped
			dups += res.MessagesDuplicated
		}
		b.StopTimer()
		b.ReportMetric(float64(msgs)/float64(decisions), "msgs/decision")
		b.ReportMetric(float64(drops)/float64(b.N), "drops/op")
		b.ReportMetric(float64(dups)/float64(b.N), "dups/op")
		reportRun(b, steps, msgs)
	}
	// E36: every process correct; all six decide across the faulty network.
	b.Run("faults", func(b *testing.B) {
		run(b, dist.NewFailurePattern(n))
	})
	// E37: crash + recovery — the wiped process relearns the decision.
	b.Run("faults-recover", func(b *testing.B) {
		f := dist.NewFailurePattern(n)
		f.CrashAt(5, 40)
		f.RecoverAt(5, 200)
		run(b, f)
	})
}

// BenchmarkAblationStackVsOracle measures what the Figure 5 emulation layer
// costs compared to querying a σ₂ₖ oracle directly — the design-choice
// ablation called out in DESIGN.md (layered reductions vs fused oracles).
func BenchmarkAblationStackVsOracle(b *testing.B) {
	const n, k = 8, 2
	f := dist.NewFailurePattern(n)
	props := agreement.DistinctProposals(n)
	x := dist.RangeSet(1, dist.ProcID(2*k))

	b.Run("oracle", func(b *testing.B) {
		oracle, err := core.NewSigmaKOracle(f, x, 20, core.SigmaKCanonical)
		if err != nil {
			b.Fatal(err)
		}
		r := newRunner(b, sim.Config{
			Pattern: f, History: oracle, Program: core.Fig4Program(props),
			Scheduler: sim.NewRandomScheduler(0), StopWhenDecided: true, DisableTrace: true,
		})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := r.Reset(int64(i)).Run()
			if err != nil {
				b.Fatal(err)
			}
			if rep := agreement.Check(f, n-k, props, res); !rep.OK() {
				b.Fatal(rep)
			}
		}
	})
	b.Run("stacked", func(b *testing.B) {
		prog := func(p dist.ProcID, nn int) sim.Automaton {
			return sim.NewStack(core.NewFig5(p, x), core.NewFig4(p, nn, props[p-1]))
		}
		r := newRunner(b, sim.Config{
			Pattern: f, History: fd.NewSigmaS(f, x, 20), Program: prog,
			Scheduler: sim.NewRandomScheduler(0), StopWhenDecided: true, DisableTrace: true,
		})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := r.Reset(int64(i)).Run()
			if err != nil {
				b.Fatal(err)
			}
			if rep := agreement.Check(f, n-k, props, res); !rep.OK() {
				b.Fatal(rep)
			}
		}
	})
}

// BenchmarkAblationSchedulers compares the random fair scheduler against
// round-robin on the same workload (Figure 2): interleaving breadth vs speed.
func BenchmarkAblationSchedulers(b *testing.B) {
	const n = 6
	f := dist.NewFailurePattern(n)
	props := agreement.DistinctProposals(n)
	oracle, err := core.NewSigmaOracle(f, dist.NewProcSet(1, 2), 20, core.SigmaCanonical)
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, sched sim.Scheduler, reseed bool) {
		r := newRunner(b, sim.Config{
			Pattern: f, History: oracle, Program: core.Fig2Program(props),
			Scheduler: sched, StopWhenDecided: true, DisableTrace: true,
		})
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			seed := int64(i)
			if !reseed {
				seed = 0 // round-robin ignores it; Reset still rewinds state
			}
			res, err := r.Reset(seed).Run()
			if err != nil {
				b.Fatal(err)
			}
			if rep := agreement.Check(f, n-1, props, res); !rep.OK() {
				b.Fatal(rep)
			}
		}
	}
	b.Run("random", func(b *testing.B) {
		run(b, sim.NewRandomScheduler(0), true)
	})
	b.Run("roundrobin", func(b *testing.B) {
		run(b, &sim.RoundRobinScheduler{}, false)
	})
}

func benchName(prefix string, v int) string {
	return prefix + "=" + strconv.Itoa(v)
}

// BenchmarkHierarchy regenerates experiment E14: the full failure-detector
// strictness chain, every edge machine-checked.
func BenchmarkHierarchy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := hierarchy.Build(hierarchy.Config{N: 6, K: 2, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// workerCounts returns the distinct pool sizes worth benchmarking on this
// machine: single-threaded and all cores.
func workerCounts() []int {
	if n := runtime.NumCPU(); n > 1 {
		return []int{1, n}
	}
	return []int{1}
}

// BenchmarkExplorer regenerates experiment E15: bounded model-checking
// throughput of the binary-keyed parallel explorer on the Figure 2 safety
// check (states/sec is the headline metric; results are bit-identical
// across worker counts, asserted by TestFig2ExploreWorkerDeterminism).
func BenchmarkExplorer(b *testing.B) {
	const n = 3
	props := agreement.DistinctProposals(n)
	f := dist.NewFailurePattern(n)
	oracle, err := core.NewSigmaOracle(f, dist.NewProcSet(1, 2), 1, core.SigmaCanonical)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range workerCounts() {
		b.Run(benchName("workers", w), func(b *testing.B) {
			var states, steps int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sim.Explore(sim.ExploreConfig{
					Pattern:  f,
					History:  oracle,
					Program:  core.Fig2Program(props),
					MaxDepth: 14,
					TimeCap:  1,
					Workers:  w,
					Check:    agreement.SafetyCheck(n-1, props),
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Violation != "" {
					b.Fatal(res.Violation)
				}
				states += res.StatesVisited
				steps += res.StepsExecuted
			}
			b.StopTimer()
			b.ReportMetric(float64(states)/b.Elapsed().Seconds(), "states/sec")
			b.ReportMetric(float64(states)/float64(b.N), "states/op")
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkSweep regenerates experiment E16: concurrent seed-sweep
// throughput (Figure 2, 64 seeds per op) across pool sizes. Aggregates are
// bit-identical across worker counts (TestSweepWorkerDeterminism).
func BenchmarkSweep(b *testing.B) {
	const n, seeds = 6, 64
	f := dist.NewFailurePattern(n)
	props := agreement.DistinctProposals(n)
	oracle, err := core.NewSigmaOracle(f, dist.NewProcSet(1, 2), 20, core.SigmaCanonical)
	if err != nil {
		b.Fatal(err)
	}
	mkSim := func() sim.Config {
		return sim.Config{
			Pattern: f, History: oracle, Program: core.Fig2Program(props),
			StopWhenDecided: true, DisableTrace: true,
		}
	}
	for _, w := range workerCounts() {
		b.Run(benchName("workers", w), func(b *testing.B) {
			var runs, steps, msgs int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := sweep.Run(sweep.Config{
					Sim:       mkSim,
					SeedStart: int64(i) * seeds,
					Seeds:     seeds,
					Workers:   w,
					Check: func(seed int64, r *sim.Result) error {
						if rep := agreement.Check(f, n-1, props, r); !rep.OK() {
							return fmt.Errorf("seed %d: %s", seed, rep)
						}
						return nil
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				if res.Failures > 0 {
					b.Fatal(res.FirstFailErr)
				}
				runs += res.Runs
				steps += res.Steps.Sum
				msgs += res.Msgs.Sum
			}
			b.StopTimer()
			b.ReportMetric(float64(runs)/b.Elapsed().Seconds(), "runs/sec")
			reportRun(b, steps, msgs)
		})
	}
}

// BenchmarkStoreSweepWorkers regenerates experiment E34: multi-core speedup
// of the store sweep engine on a full-stack workload (fast reads, piggyback,
// adaptive windows, retransmission, loss + dup + a healing partition), 32
// seeds per op on pools of 1/2/4 workers. On a 1-vCPU container the extra
// workers only add handoff overhead; run via `CPU=4 scripts/bench.sh` (which
// passes -cpu=4) for the speedup rows — aggregates are bit-identical across
// all of them either way (TestStoreFastReadSweepFallbacksAndWorkerIndependent).
func BenchmarkStoreSweepWorkers(b *testing.B) {
	const n, shards, seeds = 6, 3, 32
	f := dist.NewFailurePattern(n)
	s := dist.NewProcSet(1, 2, 3)
	scripts, err := register.GenerateStoreWorkload(register.StoreWorkloadConfig{
		N: n, S: s, Keys: 9, Shards: shards, OpsPerClient: 10, WriteRatio: 0.4, Skew: 1.4, Seed: 23,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := register.StoreSweepConfig{
		Pattern: f, S: s,
		Store: register.StoreConfig{
			Keys: 9, Shards: shards, Window: 2, Piggyback: true,
			AdaptiveWindow: true, MaxWindow: 6, StallSteps: 8,
			Retransmit: true, RTO: 16, FastReads: true,
		},
		Scripts: scripts,
		Faults: &sim.FaultPlan{
			Seed: 99, Loss: 0.05, Dup: 0.05, MaxDelay: 3,
			Partitions: []dist.Partition{
				{A: dist.NewProcSet(1, 4), B: dist.NewProcSet(2, 5), From: 40, Until: 160},
			},
		},
		StallLimit: 5000,
		Seeds:      seeds,
	}
	for _, w := range []int{1, 2, 4} {
		b.Run(benchName("workers", w), func(b *testing.B) {
			c := cfg
			c.Workers = w
			var runs, steps, msgs, fast int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.SeedStart = int64(i) * seeds
				res, err := register.StoreSweep(c)
				if err != nil {
					b.Fatal(err)
				}
				if res.Failures > 0 {
					b.Fatalf("seed %d: %v", res.FirstFailSeed, res.FirstFailErr)
				}
				runs += res.Runs
				steps += res.Steps.Sum
				msgs += res.Msgs.Sum
				fast += res.FastReads.Sum
			}
			b.StopTimer()
			b.ReportMetric(float64(runs)/b.Elapsed().Seconds(), "runs/sec")
			b.ReportMetric(float64(fast)/float64(runs), "fastreads/run")
			reportRun(b, steps, msgs)
		})
	}
}
