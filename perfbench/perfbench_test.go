package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"slices"
	"testing"

	"repro/internal/sweep"
)

// TestMain lets the test binary serve as the memory sample that the
// end-to-end run starts from its own executable.
func TestMain(m *testing.M) {
	if spec := os.Getenv(memChildEnv); spec != "" {
		if err := memChild(spec, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// quickBatch keeps test runs short: a few seeds per workload.
var quickBatch = map[string]int64{
	"store-read": 8, "store-write-faults": 8, "store-scale": 1, "consensus-faults": 40,
}

func TestEveryWorkloadPassesSetupValidation(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			in, err := w.build(defaultWorkloadSeed)
			if err != nil {
				t.Fatal(err)
			}
			if in.opsPerRun < 1 {
				t.Fatalf("%d verified ops per run", in.opsPerRun)
			}
			res, err := in.sweep(0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if res.Failures != 0 {
				t.Fatalf("seed 0 failed verification: %v", res.FirstFailErr)
			}
		})
	}
}

func TestWorkloadSeedChangesScriptsNotShape(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			a, err := w.build(defaultWorkloadSeed)
			if err != nil {
				t.Fatal(err)
			}
			b, err := w.build(heldOutWorkloadSeed)
			if err != nil {
				t.Fatal(err)
			}
			if a.pattern.String() != b.pattern.String() || !reflect.DeepEqual(a.faults, b.faults) {
				t.Fatalf("failure pattern or adversary depends on the workload seed")
			}
			if w.store == nil {
				if reflect.DeepEqual(a.proposals, b.proposals) {
					t.Fatal("the workload seed does not change the proposals")
				}
				pa, pb := slices.Clone(a.proposals), slices.Clone(b.proposals)
				slices.Sort(pa)
				slices.Sort(pb)
				if !reflect.DeepEqual(pa, pb) || a.target != b.target {
					t.Fatalf("proposal values or deciding set depend on the workload seed: %v vs %v", pa, pb)
				}
				return
			}
			if reflect.DeepEqual(a.scripts, b.scripts) {
				t.Fatal("the workload seed does not change the scripts")
			}
			if len(a.scripts) != len(b.scripts) {
				t.Fatalf("%d vs %d scripts", len(a.scripts), len(b.scripts))
			}
			for i := range a.scripts {
				if len(a.scripts[i]) != len(b.scripts[i]) {
					t.Fatalf("p%d: %d vs %d ops", i+1, len(a.scripts[i]), len(b.scripts[i]))
				}
			}
			ca, cb := a.sweepCfg.Store, b.sweepCfg.Store
			ca.ArrivalSeed, cb.ArrivalSeed = 0, 0
			if ca != cb || a.sweepCfg.S != b.sweepCfg.S || a.clients != b.clients {
				t.Fatalf("store configuration depends on the workload seed: %+v vs %+v", ca, cb)
			}
			if a.shardMap.String() != b.shardMap.String() {
				t.Fatalf("shard layout depends on the workload seed")
			}
		})
	}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (e2e, layers map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	var ours []string
	for _, w := range workloads {
		ours = append(ours, w.name)
	}
	if !slices.Equal(names, ours) {
		t.Fatalf("BENCHMARK.json declares workloads %v, the benchmark has %v", names, ours)
	}
	e2e, layers = map[string]string{}, map[string]string{}
	for _, m := range doc.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	for _, m := range doc.PerLayer {
		layers[m.Name] = m.Unit
	}
	return e2e, layers
}

func TestEmittedMetricsMatchDeclared(t *testing.T) {
	e2e, layers := declared(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			want := e2e
			if trace {
				want = layers
			}
			rep, err := run(options{workload: w.name, wseed: defaultWorkloadSeed, seconds: 0.01, trace: trace, batch: quickBatch[w.name]}, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			got := map[string]string{}
			for name, m := range rep.Metrics {
				got[name] = m.Unit
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s trace=%v emits %v, BENCHMARK.json declares %v", w.name, trace, got, want)
			}
		}
	}
}

func TestSmokeRun(t *testing.T) {
	for _, trace := range []bool{false, true} {
		rep, err := run(options{workload: "store-read", wseed: defaultWorkloadSeed, seconds: 0.2, trace: trace, batch: 10}, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Correct || rep.Attempted < 1 || rep.Failed != 0 {
			t.Fatalf("trace=%v: correct=%v attempted=%d failed=%d", trace, rep.Correct, rep.Attempted, rep.Failed)
		}
		if _, err := json.Marshal(rep); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := run(options{workload: "consensus-faults", wseed: defaultWorkloadSeed, seconds: 0.2, trace: true, batch: 40}, io.Discard)
	if err != nil || !rep.Correct {
		t.Fatalf("traced consensus smoke: err=%v correct=%v", err, rep != nil && rep.Correct)
	}
}

func TestSameCountsCatchesADivergentRun(t *testing.T) {
	in, err := workloads[0].build(defaultWorkloadSeed)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := in.sweep(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	same := *ref
	if err := sameCounts(&same, ref); err != nil {
		t.Fatal(err)
	}
	for name, perturb := range map[string]func(r *sweep.Result){
		"steps":   func(r *sweep.Result) { r.Steps.Observe(1) },
		"latency": func(r *sweep.Result) { r.Lat.Observe(3) },
		"decided": func(r *sweep.Result) { r.Decided++ },
	} {
		bad := *ref
		perturb(&bad)
		if sameCounts(&bad, ref) == nil {
			t.Errorf("a run differing in %s passes the invariance check", name)
		}
	}
}

func TestChunksCoverTheBatch(t *testing.T) {
	for _, w := range workloads {
		if w.chunk < 1 || w.batch%w.chunk != 0 {
			t.Errorf("%s: chunk %d does not divide batch %d", w.name, w.chunk, w.batch)
		}
	}
	// The aggregate of the chunks is the aggregate of one sweep over the
	// whole batch.
	in, err := workloads[0].build(defaultWorkloadSeed)
	if err != nil {
		t.Fatal(err)
	}
	whole, err := in.sweep(0, 4)
	if err != nil {
		t.Fatal(err)
	}
	agg := &sweep.Result{FirstFailSeed: -1}
	for start := int64(0); start < 4; start += 2 {
		part, err := in.sweep(start, 2)
		if err != nil {
			t.Fatal(err)
		}
		mergeResult(agg, part)
	}
	if err := sameCounts(agg, whole); err != nil {
		t.Fatal(err)
	}
}
