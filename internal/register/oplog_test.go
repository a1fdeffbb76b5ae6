package register

import (
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/dist"
	"repro/internal/fd"
	"repro/internal/sim"
	"repro/internal/trace"
)

// referenceExtractKeyedOps is the map-based extractor the op-log extractor
// replaced, kept as the differential oracle: it pairs Invoke/Return trace
// events by (process, seq) in a map and sorts each key's records by
// invocation time.
func referenceExtractKeyedOps(tr *trace.Trace) map[int][]OpRecord {
	type ik struct {
		p   dist.ProcID
		seq int64
	}
	type slot struct{ key, idx int }
	idx := make(map[ik]slot)
	byKey := make(map[int][]OpRecord)
	for _, e := range tr.Events() {
		var desc KeyedOpDesc
		switch d := e.Payload.(type) {
		case *KeyedOpDesc:
			desc = *d
		case KeyedOpDesc:
			desc = d
		default:
			continue
		}
		k := ik{p: e.P, seq: e.Seq}
		switch e.Kind {
		case trace.InvokeKind:
			idx[k] = slot{key: desc.Key, idx: len(byKey[desc.Key])}
			byKey[desc.Key] = append(byKey[desc.Key], OpRecord{
				Proc: e.P, Seq: e.Seq, Kind: desc.Kind, Arg: desc.Arg, Invoked: e.T,
			})
		case trace.ReturnKind:
			if s, found := idx[k]; found {
				o := &byKey[s.key][s.idx]
				o.Returned, o.Ret, o.Complete = e.T, desc.Ret, true
			}
		}
	}
	for _, ops := range byKey {
		sort.SliceStable(ops, func(i, j int) bool { return ops[i].Invoked < ops[j].Invoked })
	}
	return byKey
}

// traceOf renders an op log as the Invoke/Return events a traced run
// records for it.
func traceOf(log []sim.Op) *trace.Trace {
	tr := trace.New(len(log))
	for _, op := range log {
		kind := trace.InvokeKind
		if op.Ret {
			kind = trace.ReturnKind
		}
		tr.Append(trace.Event{T: op.T, P: op.P, Kind: kind, Seq: op.Seq, Payload: op.Desc})
	}
	return tr
}

// opLogByKey extracts an op log with the op-log extractor.
func opLogByKey(log []sim.Op) map[int][]OpRecord {
	var h keyedHistory
	h.extract(log)
	return h.byKey()
}

// storeReadConfig is a run of the store-read benchmark shape: n=5, every
// process a client of 32 ops over 64 keys in 4 shards, zipf 1.2, 10%
// writes, window 8, piggybacking and fast reads, failure-free.
func storeReadConfig(tb testing.TB, disableTrace bool) sim.Config {
	tb.Helper()
	const n = 5
	s := dist.FullSet(n)
	cfg := StoreConfig{Keys: 64, Shards: 4, Window: 8, Piggyback: true, FastReads: true}
	scripts, err := GenerateStoreWorkload(StoreWorkloadConfig{
		N: n, S: s, Keys: cfg.Keys, Shards: cfg.Shards, OpsPerClient: 32,
		WriteRatio: 0.1, Skew: 1.2, Seed: 1,
	})
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := StoreProgram(n, s, cfg, scripts)
	if err != nil {
		tb.Fatal(err)
	}
	f := dist.NewFailurePattern(n)
	return sim.Config{
		Pattern: f, History: fd.NewSigmaS(f, s, 20), Program: prog,
		MaxSteps: 400_000, DisableTrace: disableTrace,
		StopWhen: func(sn *sim.Snapshot) bool { return StoreClientsDone(sn, s) },
	}
}

func runStoreRead(tb testing.TB, disableTrace bool, seed int64) *sim.Result {
	tb.Helper()
	r, err := sim.NewRunner(storeReadConfig(tb, disableTrace))
	if err != nil {
		tb.Fatal(err)
	}
	res, err := r.Reset(seed).Run()
	if err != nil {
		tb.Fatal(err)
	}
	if res.Reason != sim.ReasonStopCond {
		tb.Fatalf("store-read run ended %s", res.Reason)
	}
	return res
}

func errText(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// TestOpLogExtractionMatchesTraceExtraction is the differential test of the
// extractors: on traced runs of every hot-path configuration, plus a whole
// shard crashed, coalescing without piggybacking and the store-read shape,
// the op log extracts to exactly the records the map-based extractor pairs
// from the trace, key for key and record for record; the untraced run of
// the same seed logs the same history; and VerifyStoreRunReach gives the
// same verdict from the op log as from the trace's events.
func TestOpLogExtractionMatchesTraceExtraction(t *testing.T) {
	crashShard := dist.NewFailurePattern(5)
	crashShard.CrashAt(4, 30) // shard 3's whole group
	cases := append(storeHotpathCases(),
		storeHotpathCase{"crashshard", StoreConfig{Keys: 12, Shards: 4, Window: 8}, nil, crashShard},
		storeHotpathCase{"coalesce-nopiggyback", StoreConfig{
			Keys: 12, Shards: 4, Window: 8, CoalesceDelay: 2, Retransmit: true, RTO: 16,
		}, &sim.FaultPlan{Seed: 33, Loss: 0.05, Dup: 0.05, MaxDelay: 2}, nil},
	)
	type run struct {
		name    string
		cfg     func(disableTrace bool) sim.Config
		correct dist.ProcSet
	}
	var runs []run
	for _, tc := range cases {
		pat := tc.pat
		if pat == nil {
			pat = dist.NewFailurePattern(5)
		}
		runs = append(runs, run{tc.name, func(disableTrace bool) sim.Config {
			cfg := storeHotpathConfig(t, tc.cfg, 16, tc.fp, pat)
			cfg.DisableTrace = disableTrace
			return cfg
		}, pat.Correct()})
	}
	runs = append(runs, run{"store-read", func(disableTrace bool) sim.Config {
		return storeReadConfig(t, disableTrace)
	}, dist.FullSet(5)})

	for _, rc := range runs {
		t.Run(rc.name, func(t *testing.T) {
			traced, err := sim.NewRunner(rc.cfg(false))
			if err != nil {
				t.Fatal(err)
			}
			untraced, err := sim.NewRunner(rc.cfg(true))
			if err != nil {
				t.Fatal(err)
			}
			for seed := int64(1); seed <= 3; seed++ {
				res, err := traced.Reset(seed).Run()
				if err != nil {
					t.Fatal(err)
				}
				want := referenceExtractKeyedOps(res.Trace)
				if len(want) == 0 {
					t.Fatalf("seed %d: empty history", seed)
				}
				if got := opLogByKey(res.Ops); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: op-log extraction differs from the trace's:\n got %v\nwant %v", seed, got, want)
				}
				if got := ExtractKeyedOps(res.Trace); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: ExtractKeyedOps differs from the reference:\n got %v\nwant %v", seed, got, want)
				}
				fromLog := VerifyStoreRunReach(res, rc.correct, nil)
				viaTrace := *res
				viaTrace.Ops = traceOps(res.Trace)
				if a, b := errText(fromLog), errText(VerifyStoreRunReach(&viaTrace, rc.correct, nil)); a != b {
					t.Fatalf("seed %d: verdict from the op log %q, from the trace %q", seed, a, b)
				}
				if fromLog != nil {
					t.Fatalf("seed %d: %v", seed, fromLog)
				}

				ures, err := untraced.Reset(seed).Run()
				if err != nil {
					t.Fatal(err)
				}
				if ures.Trace != nil || ures.Steps != res.Steps {
					t.Fatalf("seed %d: untraced run diverged (%d steps vs %d)", seed, ures.Steps, res.Steps)
				}
				if got := opLogByKey(ures.Ops); !reflect.DeepEqual(got, want) {
					t.Fatalf("seed %d: the untraced run logged a different history", seed)
				}
			}
		})
	}
}

// TestOpLogMutationsRejectedLikeTrace mutates the op log of a real
// store-read run into histories that must fail, and requires the op-log
// path, the trace adapter and the reference extractor to reject each with
// the same error text — also through VerifyStoreRunReach.
func TestOpLogMutationsRejectedLikeTrace(t *testing.T) {
	res := runStoreRead(t, true, 1)
	base := append([]sim.Op(nil), res.Ops...)
	correct := dist.FullSet(5)
	verdicts := func(log []sim.Op) (opLog, adapter, reference, verify string) {
		var h keyedHistory
		h.extract(log)
		opLog = errText(h.check(0))
		adapter = errText(CheckKeyedLinearizable(ExtractKeyedOps(traceOf(log)), 0))
		reference = errText(CheckKeyedLinearizable(referenceExtractKeyedOps(traceOf(log)), 0))
		mut := *res
		mut.Ops = log
		verify = errText(VerifyStoreRunReach(&mut, correct, nil))
		return
	}
	if a, b, c, d := verdicts(base); a != "<nil>" || b != a || c != a || d != a {
		t.Fatalf("unmutated run must pass everywhere: %q %q %q %q", a, b, c, d)
	}

	// Appended ops start after every logged op and use p1's and p2's next
	// seqs, seq+1 and seq2+1.
	end := base[len(base)-1].T
	var seq, seq2 int64
	for _, op := range base {
		switch op.P {
		case 1:
			seq = max(seq, op.Seq)
		case 2:
			seq2 = max(seq2, op.Seq)
		}
	}
	with := func(extra ...sim.Op) []sim.Op { return append(append([]sim.Op(nil), base...), extra...) }
	op := func(ret bool, dt int64, p dist.ProcID, seq int64, d KeyedOpDesc) sim.Op {
		return sim.Op{T: end + dist.Time(dt), Seq: seq, Desc: &d, P: p, Ret: ret}
	}

	// A key with a write that another write strictly follows: its value is
	// overwritten for good before the end of the run.
	byKey := referenceExtractKeyedOps(traceOf(base))
	staleKey, stale := -1, Value(0)
	for k, ops := range byKey {
		for _, w1 := range ops {
			for _, w2 := range ops {
				if w1.Kind == WriteOp && w2.Kind == WriteOp && w1.Complete && w2.Invoked > w1.Returned && (staleKey < 0 || k < staleKey) {
					staleKey, stale = k, w1.Arg
				}
			}
		}
	}
	if staleKey < 0 {
		t.Fatal("the run has no key written twice in sequence")
	}

	concurrent := func(readRet int64) []sim.Op {
		return with(
			op(false, 10, 1, seq+1, KeyedOpDesc{Key: staleKey, Kind: ReadOp}),
			op(false, 20, 2, seq2+1, KeyedOpDesc{Key: staleKey, Kind: WriteOp, Arg: 1 << 41}),
			op(true, 30, 2, seq2+1, KeyedOpDesc{Key: staleKey, Kind: WriteOp, Arg: 1 << 41}),
			op(true, readRet, 1, seq+1, KeyedOpDesc{Key: staleKey, Kind: ReadOp, Ret: 1 << 41}),
		)
	}
	if a, _, _, _ := verdicts(concurrent(40)); a != "<nil>" {
		t.Fatalf("a read concurrent with the write it returns must pass: %s", a)
	}
	moved := concurrent(15)
	// The read's Return now precedes the write's Invoke in the log, too.
	n := len(moved)
	moved[n-3], moved[n-2], moved[n-1] = moved[n-1], moved[n-3], moved[n-2]

	var overCap []sim.Op
	for i := int64(0); i <= MaxOpsPerHistory; i++ {
		d := KeyedOpDesc{Key: 64, Kind: WriteOp, Arg: Value(1<<42 + i)}
		overCap = append(overCap, op(false, 10+2*i, 1, seq+1+i, d), op(true, 11+2*i, 1, seq+1+i, d))
	}

	for _, tc := range []struct {
		name string
		log  []sim.Op
		want string
	}{
		{"stale read", with(
			op(false, 10, 1, seq+1, KeyedOpDesc{Key: staleKey, Kind: ReadOp}),
			op(true, 11, 1, seq+1, KeyedOpDesc{Key: staleKey, Kind: ReadOp, Ret: stale}),
		), "not linearizable"},
		{"never-written value", with(
			op(false, 10, 1, seq+1, KeyedOpDesc{Key: staleKey, Kind: ReadOp}),
			op(true, 11, 1, seq+1, KeyedOpDesc{Key: staleKey, Kind: ReadOp, Ret: 1 << 40}),
		), "not linearizable"},
		{"return moved before the write's invoke", moved, "not linearizable"},
		{"key over MaxOpsPerHistory", with(overCap...), "key 64 has 65 ops"},
	} {
		a, b, c, d := verdicts(tc.log)
		if a == "<nil>" || !strings.Contains(a, tc.want) {
			t.Fatalf("%s: op-log verdict %q, want an error containing %q", tc.name, a, tc.want)
		}
		if b != a || c != a || d != a {
			t.Fatalf("%s: verdicts differ:\n op log   %q\n adapter  %q\n reference %q\n verify   %q", tc.name, a, b, c, d)
		}
	}
}

// TestVerifyStoreRunAllocatesNothingWarm pins the verified path's
// allocation: extraction and check on the program's reused scratch
// allocate nothing once it has seen the run.
func TestVerifyStoreRunAllocatesNothingWarm(t *testing.T) {
	res := runStoreRead(t, true, 1)
	correct := dist.FullSet(5)
	if err := VerifyStoreRun(res, correct); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(20, func() {
		if err := VerifyStoreRun(res, correct); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Fatalf("warm verification allocates %.1f times per run", allocs)
	}
}

// BenchmarkVerifyStoreRun times the checker per run: op-log extraction
// plus the per-key Wing-Gong check of one store-read-shaped run (160 ops
// on up to 64 keys), on the program's reused scratch.
func BenchmarkVerifyStoreRun(b *testing.B) {
	res := runStoreRead(b, true, 1)
	correct := dist.FullSet(5)
	keys := len(opLogByKey(res.Ops))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := VerifyStoreRun(res, correct); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(keys), "keys/run")
	b.ReportMetric(float64(len(res.Ops)/2), "ops/run")
}
