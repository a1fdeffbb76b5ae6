package main

import (
	"fmt"
	"time"

	"repro/internal/dist"
	"repro/internal/register"
	"repro/internal/sim"
	"repro/internal/sweep"
)

// span accumulates the calls into one layer boundary: how many, and their
// total wall time. Spans live in memory and are written out when the
// benchmark ends.
type span struct {
	calls int64
	ns    int64
}

func (s *span) add(t0 time.Time) {
	s.calls++
	s.ns += int64(time.Since(t0))
}

// spans holds the boundaries the traced run wraps or calls one at a time.
type spans struct {
	sched, stop, step, oracle span
	reset, run                span
	extract, check, merge     span
}

// timedScheduler wraps the run's scheduler. It forwards Reseed, so
// Runner.Reset reseeds it exactly as it reseeds the runner's default one.
type timedScheduler struct {
	inner *sim.RandomScheduler
	sp    *span
}

func (s *timedScheduler) Next(v *sim.View) (sim.Choice, bool) {
	t0 := time.Now()
	c, ok := s.inner.Next(v)
	s.sp.add(t0)
	return c, ok
}

func (s *timedScheduler) Reseed(seed int64) { s.inner.Reseed(seed) }

// timedHistory wraps the failure-detector oracle.
type timedHistory struct {
	inner sim.History
	sp    *span
}

func (h *timedHistory) Output(p dist.ProcID, t dist.Time) any {
	t0 := time.Now()
	v := h.inner.Output(p, t)
	h.sp.add(t0)
	return v
}

// timedAutomaton wraps one process's automaton. It forwards Recover, so a
// recovered process sheds its volatile state exactly as the bare automaton
// does.
type timedAutomaton struct {
	inner sim.Automaton
	sp    *span
}

func (a *timedAutomaton) Step(e *sim.Env) {
	t0 := time.Now()
	a.inner.Step(e)
	a.sp.add(t0)
}

func (a *timedAutomaton) Recover() {
	if r, ok := a.inner.(sim.Recoverable); ok {
		r.Recover()
	}
}

// unwrap returns the automaton a timedAutomaton wraps, or a itself.
func unwrap(a sim.Automaton) sim.Automaton {
	if t, ok := a.(*timedAutomaton); ok {
		return t.inner
	}
	return a
}

// newWrappedRunner builds a runner whose scheduler, oracle, automata and
// stop predicate record into sp. The wrappers add no behaviour; the traced
// run checks seed for seed that it reproduces the end-to-end counts.
func newWrappedRunner(cfg sim.Config, sp *spans) (*sim.Runner, error) {
	if cfg.Scheduler != nil {
		return nil, fmt.Errorf("the sweep entry points use the runner's default scheduler")
	}
	cfg.Scheduler = &timedScheduler{inner: sim.NewRandomScheduler(1), sp: &sp.sched}
	cfg.History = &timedHistory{inner: cfg.History, sp: &sp.oracle}
	prog := cfg.Program
	var emulator error
	cfg.Program = func(p dist.ProcID, n int) sim.Automaton {
		a := prog(p, n)
		if _, ok := a.(sim.Emulator); ok {
			// The runner records emulator outputs, which the wrapper hides.
			emulator = fmt.Errorf("p%d runs an emulator, which the step wrapper does not forward", int(p))
		}
		return &timedAutomaton{inner: a, sp: &sp.step}
	}
	stop := cfg.StopWhen
	cfg.StopWhen = func(sn *sim.Snapshot) bool {
		t0 := time.Now()
		done := stop(sn)
		sp.stop.add(t0)
		return done
	}
	r, err := sim.NewRunner(cfg) // instantiates every automaton once
	if err == nil {
		err = emulator
	}
	return r, err
}

// layerTotals are the traced run's sums over every traced seed.
type layerTotals struct {
	sp spans
	// untraced times Run of the identically wrapped runner with recording
	// off; recording costs the difference to sp.run.
	untraced span
	// total is the wall time of the traced seeds, from Reset through the
	// aggregation of the run.
	total time.Duration
	runs  int64

	steps, dropped, duplicated, delayed int64
	completed, retransmits              int64
	reads, fastReads, fallbacks         int64
	events                              int64
	maxOpsPerKey                        int
}

// tracedRunner pairs the wrapped runner used for layer timing with, on
// store workloads, an identically wrapped runner whose recording is off.
type tracedRunner struct {
	in       *instance
	traced   *sim.Runner
	untraced *sim.Runner
	scratch  spans // the untraced runner's inner spans, not reported
	tot      layerTotals
}

func newTracedRunner(in *instance) (*tracedRunner, error) {
	tr := &tracedRunner{in: in}
	cfg, err := in.simConfig()
	if err != nil {
		return nil, err
	}
	if tr.traced, err = newWrappedRunner(cfg, &tr.tot.sp); err != nil {
		return nil, err
	}
	if in.w.store == nil {
		return tr, nil // the consensus sweep never records a history
	}
	if cfg, err = in.simConfig(); err != nil {
		return nil, err
	}
	cfg.DisableTrace = true
	tr.untraced, err = newWrappedRunner(cfg, &tr.scratch)
	return tr, err
}

// run executes one traced seed and returns its aggregate, built exactly as
// the sweep engine and the entry point's Collect build it.
func (tr *tracedRunner) run(seed int64) (*sweep.Result, error) {
	tot := &tr.tot
	start := time.Now()
	t0 := start
	tr.traced.Reset(seed)
	tot.sp.reset.add(t0)
	t0 = time.Now()
	res, err := tr.traced.Run()
	tot.sp.run.add(t0)
	if err != nil {
		return nil, fmt.Errorf("seed %d: %w", seed, err)
	}
	if tr.in.w.store != nil {
		if err := tr.checkStore(res); err != nil {
			return nil, fmt.Errorf("seed %d: traced run: %w", seed, err)
		}
	}
	t0 = time.Now()
	agg := observe(res, tr.in)
	tot.sp.merge.add(t0)
	tot.total += time.Since(start)

	tot.runs++
	tot.steps += res.Steps
	tot.dropped += res.MessagesDropped
	tot.duplicated += res.MessagesDuplicated
	tot.delayed += res.MessagesDelayed
	if tr.in.w.store != nil {
		tr.collectStore(res)
	}

	if tr.untraced != nil {
		tr.untraced.Reset(seed)
		t0 = time.Now()
		ures, err := tr.untraced.Run()
		tot.untraced.add(t0)
		if err != nil {
			return nil, fmt.Errorf("seed %d: %w", seed, err)
		}
		if ures.Steps != res.Steps || ures.MessagesSent != res.MessagesSent {
			return nil, fmt.Errorf("seed %d: the run without recording diverged (%d steps, %d msgs vs %d, %d)",
				seed, ures.Steps, ures.MessagesSent, res.Steps, res.MessagesSent)
		}
	}
	return agg, nil
}

// checkStore times history extraction and the linearizability check of one
// traced store run. The traced run gives no verdicts (the end-to-end sweep
// does): a checker error here means it diverged from the verified run.
func (tr *tracedRunner) checkStore(res *sim.Result) error {
	tot := &tr.tot
	t0 := time.Now()
	byKey := register.ExtractKeyedOps(res.Trace)
	tot.sp.extract.add(t0)
	t0 = time.Now()
	err := register.CheckKeyedLinearizable(byKey, 0)
	tot.sp.check.add(t0)
	for _, ops := range byKey {
		tot.maxOpsPerKey = max(tot.maxOpsPerKey, len(ops))
		for _, op := range ops {
			if op.Complete && op.Kind == register.ReadOp {
				tot.reads++
			}
		}
	}
	return err
}

// collectStore adds one traced store run's node counters to the totals.
func (tr *tracedRunner) collectStore(res *sim.Result) {
	tot := &tr.tot
	tot.events += int64(res.Trace.Len())
	for _, a := range res.Automata {
		if node, ok := unwrap(a).(*register.StoreNode); ok {
			tot.completed += int64(node.CompletedOps())
			tot.retransmits += node.Retransmits()
			tot.fastReads += node.FastReads()
			tot.fallbacks += node.ReadFallbacks()
		}
	}
}

// observe builds the aggregate of one run the way sweep.Run folds a passing
// run and StoreSweep's Collect merges its per-node observations.
func observe(res *sim.Result, in *instance) *sweep.Result {
	r := &sweep.Result{FirstFailSeed: -1, Runs: 1}
	if in.pattern.Correct().AllSatisfy(func(p dist.ProcID) bool {
		_, ok := res.Decisions[p]
		return ok
	}) {
		r.Decided = 1
	}
	r.Steps.Observe(res.Steps)
	r.Msgs.Observe(res.MessagesSent)
	r.Dropped.Observe(res.MessagesDropped)
	r.Duplicated.Observe(res.MessagesDuplicated)
	if in.w.store == nil {
		return r
	}
	var fast, fall int64
	for _, a := range res.Automata {
		if node, ok := unwrap(a).(*register.StoreNode); ok {
			r.Lat.Merge(node.LatencyHist())
			r.LatClean.Merge(node.CleanLatencyHist())
			r.LatFaulted.Merge(node.FaultedLatencyHist())
			fast += node.FastReads()
			fall += node.ReadFallbacks()
		}
	}
	r.FastReads.Observe(fast)
	r.Fallbacks.Observe(fall)
	return r
}

// mergeResult folds the deterministic counts of src into dst.
func mergeResult(dst, src *sweep.Result) {
	dst.Runs += src.Runs
	dst.Decided += src.Decided
	dst.Failures += src.Failures
	for _, h := range []struct{ d, s *sweep.Hist }{
		{&dst.Steps, &src.Steps}, {&dst.Msgs, &src.Msgs},
		{&dst.Dropped, &src.Dropped}, {&dst.Duplicated, &src.Duplicated},
		{&dst.Lat, &src.Lat}, {&dst.LatClean, &src.LatClean}, {&dst.LatFaulted, &src.LatFaulted},
		{&dst.FastReads, &src.FastReads}, {&dst.Fallbacks, &src.Fallbacks},
	} {
		h.d.Merge(h.s)
	}
}

// sameCounts reports the first deterministic count on which two aggregates
// differ: runs, decisions, failures, and the step, message, fault,
// latency and fast-read histograms.
func sameCounts(got, want *sweep.Result) error {
	if got.Runs != want.Runs || got.Decided != want.Decided || got.Failures != want.Failures {
		return fmt.Errorf("runs/decided/failures %d/%d/%d, want %d/%d/%d",
			got.Runs, got.Decided, got.Failures, want.Runs, want.Decided, want.Failures)
	}
	for _, h := range []struct {
		name      string
		got, want sweep.Hist
	}{
		{"steps", got.Steps, want.Steps}, {"msgs", got.Msgs, want.Msgs},
		{"dropped", got.Dropped, want.Dropped}, {"duplicated", got.Duplicated, want.Duplicated},
		{"latency", got.Lat, want.Lat}, {"clean latency", got.LatClean, want.LatClean},
		{"faulted latency", got.LatFaulted, want.LatFaulted},
		{"fast reads", got.FastReads, want.FastReads}, {"fallbacks", got.Fallbacks, want.Fallbacks},
	} {
		if h.got != h.want {
			return fmt.Errorf("%s histogram %s, want %s", h.name, h.got.String(), h.want.String())
		}
	}
	return nil
}
