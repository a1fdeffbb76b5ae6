package sim

import (
	"testing"

	"repro/internal/dist"
	"repro/internal/trace"
)

// invoker calls Invoke on every step and never sends: its only progress is
// the operation it records.
type invoker struct {
	seq  int64
	desc int64
}

func (a *invoker) Step(e *Env) {
	a.seq++
	e.Invoke(a.seq, &a.desc)
}

// TestStallVerdictIndependentOfTracing pins that an operation record counts
// as progress for StallLimit whether or not the trace is on: a process that
// only invokes is never stalled, so both modes run to the step budget.
func TestStallVerdictIndependentOfTracing(t *testing.T) {
	for _, disable := range []bool{false, true} {
		res, err := Run(Config{
			Pattern:      dist.NewFailurePattern(1),
			History:      nilHistory(),
			Program:      func(dist.ProcID, int) Automaton { return &invoker{} },
			Scheduler:    NewRandomScheduler(1),
			MaxSteps:     50,
			StallLimit:   5,
			DisableTrace: disable,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Reason != ReasonMaxSteps || res.Ticks != 50 || res.Steps != 50 {
			t.Fatalf("DisableTrace=%v: run ended %s at tick %d after %d steps, want max-steps at 50 after 50",
				disable, res.Reason, res.Ticks, res.Steps)
		}
		if len(res.Ops) != 50 {
			t.Fatalf("DisableTrace=%v: %d ops logged, want 50", disable, len(res.Ops))
		}
	}
}

// opProbe alternates an invocation and its response, one per step, and
// pings its peer so the schedule interleaves deliveries. It is an Emulator
// so it can sit below another layer of a Stack.
type opProbe struct {
	self dist.ProcID
	seq  int64
	open bool
	desc [2]int64
}

func (a *opProbe) Step(e *Env) {
	if a.open {
		e.Return(a.seq, &a.desc[1])
		a.open = false
	} else {
		a.seq++
		e.Invoke(a.seq, &a.desc[0])
		a.open = true
	}
	if _, _, ok := e.Delivered(); !ok {
		e.Send(3-a.self, "ping")
	}
}

func (a *opProbe) Output() any { return nil }

func opProbeConfig(disableTrace bool) Config {
	return Config{
		Pattern: dist.NewFailurePattern(2),
		History: nilHistory(),
		Program: func(p dist.ProcID, _ int) Automaton {
			return NewStack(&opProbe{self: p}, &opProbe{self: p})
		},
		MaxSteps:     120,
		DisableTrace: disableTrace,
	}
}

// TestOpLogMatchesTraceAndIsReused pins the operation log: on a traced run
// it holds exactly the trace's Invoke/Return events, in order, for every
// layer of a Stack; an untraced run of the same seed logs the same
// entries; and the log's buffer is reused by the next run.
func TestOpLogMatchesTraceAndIsReused(t *testing.T) {
	traced, err := NewRunner(opProbeConfig(false))
	if err != nil {
		t.Fatal(err)
	}
	res, err := traced.Reset(3).Run()
	if err != nil {
		t.Fatal(err)
	}
	var want []Op
	for _, e := range res.Trace.Events() {
		if e.Kind == trace.InvokeKind || e.Kind == trace.ReturnKind {
			want = append(want, Op{T: e.T, Seq: e.Seq, Desc: e.Payload, P: e.P, Ret: e.Kind == trace.ReturnKind})
		}
	}
	if len(want) < 100 {
		t.Fatalf("only %d op events traced — the probe exercised too little", len(want))
	}
	if len(res.Ops) != len(want) {
		t.Fatalf("op log has %d entries, trace %d", len(res.Ops), len(want))
	}
	for i := range want {
		if res.Ops[i] != want[i] {
			t.Fatalf("op %d: log %+v, trace %+v", i, res.Ops[i], want[i])
		}
	}

	untraced, err := NewRunner(opProbeConfig(true))
	if err != nil {
		t.Fatal(err)
	}
	ures, err := untraced.Reset(3).Run()
	if err != nil {
		t.Fatal(err)
	}
	if ures.Trace != nil {
		t.Fatal("untraced run returned a trace")
	}
	if len(ures.Ops) != len(want) {
		t.Fatalf("untraced op log has %d entries, traced %d", len(ures.Ops), len(want))
	}
	for i, op := range ures.Ops {
		if op.T != want[i].T || op.P != want[i].P || op.Seq != want[i].Seq || op.Ret != want[i].Ret {
			t.Fatalf("op %d: untraced %+v, traced %+v", i, op, want[i])
		}
	}

	first := &ures.Ops[0]
	again, err := untraced.Reset(3).Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(again.Ops) != len(ures.Ops) || &again.Ops[0] != first {
		t.Fatal("the next run did not reuse the op log's buffer")
	}
}
