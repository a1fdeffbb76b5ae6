package sim

import (
	"math/rand"

	"repro/internal/dist"
	"repro/internal/trace"
)

// DeliverMode selects which pending message (if any) a scheduled step
// receives.
type DeliverMode uint8

// Delivery modes.
const (
	// DeliverAuto receives the oldest deliverable pending message, or takes
	// a null step when none is pending.
	DeliverAuto DeliverMode = iota + 1
	// DeliverNone forces a null step even when messages are pending. The
	// runner's fairness watchdog is bypassed; scripted schedules use this to
	// realize the finite unfair prefixes the impossibility proofs need.
	DeliverNone
	// DeliverMatch receives the oldest deliverable pending message matching
	// the choice's Match predicate, or takes a null step when none matches.
	DeliverMatch
)

// Choice is one scheduling decision: which process steps and what it
// receives.
type Choice struct {
	Proc  dist.ProcID
	Mode  DeliverMode
	Match func(m *Message) bool // used by DeliverMatch
}

// View is the read-only state a scheduler may inspect. Schedulers model the
// adversary, so they see everything (unlike processes).
type View struct {
	Now     dist.Time
	N       int
	Alive   dist.ProcSet // processes that have not crashed at Now
	Correct dist.ProcSet
	// HasPending reports whether a deliverable message is queued for p.
	HasPending func(p dist.ProcID) bool
	// Decided reports whether p has decided.
	Decided func(p dist.ProcID) bool
}

// Scheduler picks the next step of a run. Returning ok=false ends the run.
type Scheduler interface {
	Next(v *View) (Choice, bool)
}

// RandomScheduler is a seeded, fair scheduler: every alive process keeps
// taking steps (bounded bypass) and every pending message is eventually
// delivered (the runner force-delivers messages older than MaxDelay whenever
// the receiver steps with DeliverAuto). It models the asynchronous
// adversary used to exercise algorithms across many interleavings.
//
// A pick costs O(1) whatever the system size: the bounded-bypass candidate
// is the head of a least-recently-stepped list, and only a change of the
// alive set (a crash or a recovery) or a Reseed relinks it, in O(n).
type RandomScheduler struct {
	rng *rand.Rand
	// NullProb is the probability that a step with pending messages is
	// nevertheless a null step (exercises "wait" loops). Default 0.25.
	NullProb float64
	// MaxSkip bounds how many consecutive scheduler picks may bypass an
	// alive process. Default 4n.
	MaxSkip int

	tick int64
	// lastStep, the lists and members are indexed by ProcID (slot 0 is the
	// lists' sentinel) and sized on first use to the system at hand; they
	// only ever grow, so a scheduler reused across runs allocates once.
	lastStep []int64

	// Least-recently-stepped order. order links every process seen alive
	// since the last Reseed and alive the currently alive ones, both sorted
	// by (lastStep, ProcID): the stepping process takes the unique newest
	// lastStep and moves to both tails, and a crashed process keeps its
	// place in order because its lastStep freezes. The head of alive is
	// therefore the most starved alive process, ties in ProcID order.
	order, alive lrsList
	seen         dist.ProcSet // the members of order
	// aliveKey is the alive set that alive and members were linked for;
	// it only changes at crash and recovery times (== is a word compare).
	aliveKey dist.ProcSet
	members  []dist.ProcID // alive processes in ProcID order
}

// lrsList is an intrusive circular doubly linked list of ProcIDs. Slot 0
// (dist.None) is the sentinel: next[0] is the head and prev[0] the tail.
type lrsList struct {
	next, prev []dist.ProcID
}

func (l *lrsList) clear() { l.next[0], l.prev[0] = dist.None, dist.None }

// grow makes room for ProcIDs up to n, keeping the links.
func (l *lrsList) grow(n int) {
	l.next = append(l.next, make([]dist.ProcID, n+1-len(l.next))...)
	l.prev = append(l.prev, make([]dist.ProcID, n+1-len(l.prev))...)
}

func (l *lrsList) head() dist.ProcID { return l.next[0] }

// insertBefore links p in front of at (dist.None appends at the tail).
func (l *lrsList) insertBefore(p, at dist.ProcID) {
	prev := l.prev[at]
	l.next[prev], l.prev[p] = p, prev
	l.next[p], l.prev[at] = at, p
}

// moveToBack relinks the member p at the tail.
func (l *lrsList) moveToBack(p dist.ProcID) {
	if l.prev[0] == p {
		return
	}
	l.next[l.prev[p]], l.prev[l.next[p]] = l.next[p], l.prev[p]
	l.insertBefore(p, dist.None)
}

var _ Scheduler = (*RandomScheduler)(nil)
var _ Reseeder = (*RandomScheduler)(nil)

// NewRandomScheduler returns a fair random scheduler with the given seed.
func NewRandomScheduler(seed int64) *RandomScheduler {
	return &RandomScheduler{
		rng:      rand.New(rand.NewSource(seed)),
		NullProb: 0.25,
	}
}

// Reseed rewinds the scheduler to the state NewRandomScheduler(seed) would
// produce, so one scheduler serves a whole seed sweep without reallocation.
func (s *RandomScheduler) Reseed(seed int64) {
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(seed))
	} else {
		s.rng.Seed(seed)
	}
	s.tick = 0
	clear(s.lastStep)
	if len(s.lastStep) > 0 {
		s.order.clear()
		s.alive.clear()
	}
	s.seen = dist.ProcSet{}
	s.aliveKey = dist.ProcSet{}
	s.members = s.members[:0]
}

// size makes room for the processes of an n-process system and has the
// next pick relink the alive list.
func (s *RandomScheduler) size(n int) {
	s.lastStep = append(s.lastStep, make([]int64, n+1-len(s.lastStep))...)
	s.order.grow(n)
	s.alive.grow(n)
	s.members = make([]dist.ProcID, 0, n)
	s.aliveKey = dist.ProcSet{}
}

// relink rebuilds the alive list and the member table for a new alive set,
// in O(n) and without allocating. A process alive for the first time since
// Reseed has never stepped, so it belongs in order's never-stepped prefix
// (lastStep 0) in ProcID order; one merge pass places every newcomer.
func (s *RandomScheduler) relink(alive dist.ProcSet) {
	at := s.order.head()
	for fresh := alive.Minus(s.seen); !fresh.IsEmpty(); {
		p := fresh.Min()
		fresh = fresh.Remove(p)
		for at != dist.None && s.lastStep[at] == 0 && at < p {
			at = s.order.next[at]
		}
		s.order.insertBefore(p, at)
	}
	s.seen = s.seen.Union(alive)
	s.alive.clear()
	for p := s.order.head(); p != dist.None; p = s.order.next[p] {
		if alive.Contains(p) {
			s.alive.insertBefore(p, dist.None)
		}
	}
	s.members = alive.AppendMembers(s.members[:0])
	s.aliveKey = alive
}

// Next implements Scheduler.
func (s *RandomScheduler) Next(v *View) (Choice, bool) {
	if v.N >= len(s.lastStep) {
		s.size(v.N)
	}
	if v.Alive != s.aliveKey {
		s.relink(v.Alive)
	}
	if len(s.members) == 0 {
		return Choice{}, false
	}
	s.tick++
	maxSkip := s.MaxSkip
	if maxSkip <= 0 {
		maxSkip = 4 * v.N
	}
	// Bounded bypass: pick the most starved process when it has waited too
	// long, otherwise pick uniformly.
	pick := s.alive.head()
	if s.tick-s.lastStep[pick] <= int64(maxSkip) {
		pick = s.members[s.rng.Intn(len(s.members))]
	}
	s.lastStep[pick] = s.tick
	s.order.moveToBack(pick)
	s.alive.moveToBack(pick)

	mode := DeliverAuto
	if v.HasPending(pick) && s.rng.Float64() < s.NullProb {
		// Occasional null steps despite pending messages; the runner's
		// MaxDelay watchdog still guarantees eventual delivery.
		mode = DeliverNone
	}
	return Choice{Proc: pick, Mode: mode}, true
}

// RoundRobinScheduler cycles through alive processes in identifier order and
// always delivers the oldest pending message. It yields the canonical
// "synchronous-looking" schedule useful for quick smoke tests.
type RoundRobinScheduler struct {
	next dist.ProcID
}

var _ Scheduler = (*RoundRobinScheduler)(nil)
var _ Reseeder = (*RoundRobinScheduler)(nil)

// Reseed rewinds the cycle to p1 (the seed itself is irrelevant to a
// deterministic scheduler), so one scheduler serves repeated runs.
func (s *RoundRobinScheduler) Reseed(int64) { s.next = 0 }

// Next implements Scheduler.
func (s *RoundRobinScheduler) Next(v *View) (Choice, bool) {
	if v.Alive.IsEmpty() {
		return Choice{}, false
	}
	for i := 0; i < v.N; i++ {
		s.next++
		if s.next > dist.ProcID(v.N) {
			s.next = 1
		}
		if v.Alive.Contains(s.next) {
			return Choice{Proc: s.next, Mode: DeliverAuto}, true
		}
	}
	return Choice{}, false
}

// ScriptedScheduler replays an explicit prefix of choices, then hands over
// to an optional continuation scheduler. It realizes the adversarial runs of
// the impossibility proofs: a finite, precisely controlled prefix followed
// by a fair continuation.
type ScriptedScheduler struct {
	Script []Choice
	Then   Scheduler // nil ends the run when the script is exhausted

	pos int
}

var _ Scheduler = (*ScriptedScheduler)(nil)
var _ Reseeder = (*ScriptedScheduler)(nil)

// Reseed rewinds the script to its start and forwards the seed to the
// continuation scheduler when it is reseedable.
func (s *ScriptedScheduler) Reseed(seed int64) {
	s.pos = 0
	if rs, ok := s.Then.(Reseeder); ok {
		rs.Reseed(seed)
	}
}

// Next implements Scheduler. A Choice with Proc == dist.None is an idle
// tick: time advances with no step, which the proof constructions use to
// align the absolute times of stitched histories. Scripted choices naming a
// crashed process are skipped (the run construction decides crash times
// independently).
func (s *ScriptedScheduler) Next(v *View) (Choice, bool) {
	for s.pos < len(s.Script) {
		c := s.Script[s.pos]
		s.pos++
		if c.Proc == dist.None || v.Alive.Contains(c.Proc) {
			if c.Mode == 0 {
				c.Mode = DeliverAuto
			}
			return c, true
		}
	}
	if s.Then == nil {
		return Choice{}, false
	}
	return s.Then.Next(v)
}

// Idle returns count idle ticks (time passes, nobody steps).
func Idle(count int64) []Choice {
	out := make([]Choice, count)
	return out // zero Choice has Proc == dist.None
}

// ReplayScript reconstructs the exact schedule of a recorded run up to and
// including time upTo: each recorded step is replayed as a choice for the
// same process delivering the same message (matched by sequence number), and
// times without a recorded step become idle ticks. Replaying a deterministic
// automaton against this script reproduces its observation sequence exactly —
// the mechanical form of the proofs' "takes the same steps as in r".
func ReplayScript(tr *trace.Trace, upTo dist.Time) []Choice {
	steps := make(map[dist.Time]trace.Event)
	for _, e := range tr.Events() {
		if e.Kind == trace.StepKind && e.T <= upTo {
			steps[e.T] = e
		}
	}
	out := make([]Choice, 0, upTo+1)
	for t := dist.Time(0); t <= upTo; t++ {
		e, ok := steps[t]
		if !ok {
			out = append(out, Choice{}) // idle tick
			continue
		}
		c := Choice{Proc: e.P, Mode: DeliverNone}
		if e.Delivered {
			seq := e.Seq
			c.Mode = DeliverMatch
			c.Match = func(m *Message) bool { return m.Seq == seq }
		}
		out = append(out, c)
	}
	return out
}

// Steps builds a script that lets each listed process take `count`
// consecutive steps with the given mode, in order.
func Steps(mode DeliverMode, count int, procs ...dist.ProcID) []Choice {
	out := make([]Choice, 0, count*len(procs))
	for _, p := range procs {
		for i := 0; i < count; i++ {
			out = append(out, Choice{Proc: p, Mode: mode})
		}
	}
	return out
}
