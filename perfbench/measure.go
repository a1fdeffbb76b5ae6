package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/sweep"
)

// A run builds its workload at least minSetups times and then again until
// setupBudget has passed (at most maxSetups times); setup metrics report the
// median.
const (
	minSetups, maxSetups = 21, 1001
	setupBudget          = 500 * time.Millisecond
)

// minLatSamples keeps at least ten latency samples beyond p99.
const minLatSamples = 1000

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options are the command-line inputs of one benchmark run.
type options struct {
	workload  string
	wseed     int64 // workload generator seed
	sweepSeed int64 // first sweep seed
	seconds   float64
	trace     bool
	batch     int64 // seeds per round; 0 keeps the workload's own (tests shrink it)
}

// setupResult is the median set-up of a run and the instance it built last.
type setupResult struct {
	in                *instance
	total, gen, build time.Duration
}

// setup builds the workload repeatedly and keeps the medians.
func setup(w *workload, wseed int64) (*setupResult, error) {
	var total, gen, build []time.Duration
	var in *instance
	runtime.GC()
	start := time.Now()
	for i := 0; i < maxSetups && (i < minSetups || time.Since(start) < setupBudget); i++ {
		t0 := time.Now()
		var err error
		if in, err = w.build(wseed); err != nil {
			return nil, err
		}
		total = append(total, time.Since(t0))
		gen = append(gen, in.genTime)
		build = append(build, in.buildTime)
	}
	return &setupResult{in: in, total: median(total), gen: median(gen), build: median(build)}, nil
}

func median[T ~int64 | ~float64](xs []T) T {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// run measures one workload and returns its report. log receives the
// human-readable summary.
func run(o options, log io.Writer) (*report, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	batch, chunk := w.batch, w.chunk
	if o.batch > 0 {
		batch, chunk = o.batch, o.batch
	}
	su, err := setup(w, o.wseed)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	fmt.Fprintf(log, "%s: workload seed %d, sweep seeds [%d, %d), %d verified ops per run, setup %v (gen %v, build %v)\n",
		w.name, o.wseed, o.sweepSeed, o.sweepSeed+batch, su.in.opsPerRun, su.total, su.gen, su.build)
	if o.trace {
		return runTraced(o, su, batch, log)
	}
	return runEndToEnd(o, su, batch, chunk, log)
}

// runEndToEnd repeats the verified sweep over one fixed batch of seeds for
// the measuring window, one chunk of the batch per round, each round
// followed by the reference mix. Throughput is in runs per reference
// second: the batch's runs over the sum of each chunk's median process CPU
// time, over the median of the reference mix's passes per CPU second,
// times refPassesPerSecond. The deterministic counts are the aggregate of
// the first pass through the batch, and every later round must reproduce
// its chunk's counts exactly.
func runEndToEnd(o options, su *setupResult, batch, chunk int64, log io.Writer) (*report, error) {
	in := su.in
	chunkRefs := make([]*sweep.Result, batch/chunk)
	cpu := make([][]time.Duration, len(chunkRefs))
	wall := make([][]time.Duration, len(chunkRefs))
	var refRates []float64
	ref := &sweep.Result{FirstFailSeed: -1}
	rep := &report{Correct: true}
	var ms0, ms1 runtime.MemStats
	var alloc uint64 // heap bytes the sweeps allocated, not the reference mix
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	for k := 0; k < len(chunkRefs) || time.Now().Before(deadline); k++ {
		i := k % len(chunkRefs)
		runtime.GC()
		runtime.ReadMemStats(&ms0)
		c0, err := processCPU()
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		res, err := in.sweep(o.sweepSeed+int64(i)*chunk, chunk)
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		c1, err := processCPU()
		if err != nil {
			return nil, err
		}
		runtime.ReadMemStats(&ms1)
		alloc += ms1.TotalAlloc - ms0.TotalAlloc
		rep.Attempted += res.Runs
		rep.Failed += res.Failures
		if res.Failures > 0 {
			rep.Correct = false
			fmt.Fprintf(log, "FAIL: %d of %d runs failed verification (first seed %d: %v)\n",
				res.Failures, res.Runs, res.FirstFailSeed, res.FirstFailErr)
			break
		}
		if chunkRefs[i] == nil {
			chunkRefs[i] = res
			mergeResult(ref, res)
		} else if err := sameCounts(res, chunkRefs[i]); err != nil {
			rep.Correct = false
			fmt.Fprintf(log, "FAIL: round %d is not deterministic: %v\n", k, err)
			break
		}
		refPerS, err := refRate()
		if err != nil {
			return nil, err
		}
		cpu[i] = append(cpu[i], c1-c0)
		wall[i] = append(wall[i], d)
		refRates = append(refRates, refPerS)
	}
	if len(refRates) == 0 { // the first round failed verification
		refRates = []float64{0}
	}
	// Rates are per reference second and set-up times in reference seconds,
	// so that neither moves with the host's speed.
	cpuRate := div(float64(batch), batchTime(cpu).Seconds())
	runsPerS := div(cpuRate, median(refRates)) * refPassesPerSecond
	lat := ref.Lat
	if in.w.store == nil {
		lat = ref.Steps // a decision's latency: steps until every target process decided
	}
	if lat.Count < minLatSamples {
		rep.Correct = false
		fmt.Fprintf(log, "FAIL: %d latency samples leave fewer than ten beyond p99\n", lat.Count)
	}
	verified := float64(ref.Runs - ref.Failures)
	var rss float64
	if rep.Correct {
		var err error
		if rss, err = peakRSSMB(o, o.sweepSeed, chunk, log); err != nil {
			return nil, fmt.Errorf("peak resident memory: %w", err)
		}
	}
	rep.Metrics = map[string]metric{
		"runs_per_ref_s":       {runsPerS, "1/ref_s"},
		"lat_p50_steps":        {quantile(&lat, 0.50), "steps"},
		"lat_p99_steps":        {quantile(&lat, 0.99), "steps"},
		"msgs_per_verified_op": {div(float64(ref.Msgs.Sum), verified*float64(in.opsPerRun)), "msgs/op"},
		"verified_ratio":       {div(float64(rep.Attempted-rep.Failed), float64(rep.Attempted)), "ratio"},
		"setup_s":              {su.total.Seconds() * median(refRates) / refPassesPerSecond, "s"},
		"alloc_bytes_per_run":  {div(float64(alloc), float64(rep.Attempted)), "B"},
		"peak_rss_mb":          {rss, "MB"},
	}
	fmt.Fprintf(log, "%d rounds of %d runs; runs per CPU second %.1f, per wall second %.1f; reference passes per CPU second: min %.2f median %.2f max %.2f\n",
		len(refRates), chunk, cpuRate, div(float64(batch), batchTime(wall).Seconds()), slices.Min(refRates), median(refRates), slices.Max(refRates))
	fmt.Fprintf(log, "runs per reference second %.2f; verified ops per reference second %.0f\n",
		runsPerS, runsPerS*float64(in.opsPerRun))
	fmt.Fprintf(log, "latency: %d samples, p50 %.2f p99 %.2f steps; %s\n",
		lat.Count, quantile(&lat, 0.50), quantile(&lat, 0.99), ref.String())
	return rep, nil
}

// batchTime is the time of one pass through the batch: the sum over
// chunks of each chunk's median round time. Chunks differ in cost, so
// their rounds are not pooled into one median.
func batchTime(rounds [][]time.Duration) time.Duration {
	var t time.Duration
	for _, r := range rounds {
		t += median(r)
	}
	return t
}

// quantile reads the q-quantile off a power-of-two histogram the way
// sweep.Hist.Quantile does, by linear interpolation inside the bucket that
// holds the rank, but without rounding to a whole step: a shift of samples
// between buckets moves it even when the rounded value stays put.
func quantile(h *sweep.Hist, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	rank := q * float64(h.Count-1)
	cum := 0.0
	for i, c := range h.Buckets {
		fc := float64(c)
		if c == 0 || rank >= cum+fc {
			cum += fc
			continue
		}
		lo, hi := 0.0, float64(int64(1)<<i)
		if i > 0 {
			lo = float64(int64(1) << (i - 1))
		}
		if i == len(h.Buckets)-1 || hi > float64(h.Max) {
			hi = float64(h.Max + 1)
		}
		lo = max(lo, float64(h.Min))
		return min(max(lo+(rank-cum)/fc*(hi-lo), float64(h.Min)), float64(h.Max))
	}
	return float64(h.Max)
}

// runTraced times every layer over the same seeds as the end-to-end run.
// It first runs the verified sweep once over the batch (the reference
// aggregate and the end-to-end time per run) and once per seed (the
// seed-for-seed references), then runs traced seeds from the batch for the
// measuring window. Each traced seed must reproduce its reference
// exactly; the traced run gives no verdicts of its own.
func runTraced(o options, su *setupResult, batch int64, log io.Writer) (*report, error) {
	in := su.in
	rep := &report{Correct: true}
	deadline := time.Now().Add(time.Duration(o.seconds * float64(time.Second)))
	runtime.GC()
	t0 := time.Now()
	ref, err := in.sweep(o.sweepSeed, batch)
	e2ePerRun := time.Since(t0).Seconds() / float64(batch)
	if err != nil {
		return nil, err
	}
	rep.Attempted, rep.Failed = ref.Runs, ref.Failures
	if ref.Failures > 0 {
		rep.Correct = false
		fmt.Fprintf(log, "FAIL: %d of %d runs failed verification (first seed %d: %v)\n",
			ref.Failures, ref.Runs, ref.FirstFailSeed, ref.FirstFailErr)
	}
	perSeed := make([]*sweep.Result, batch)
	for i := range perSeed {
		if perSeed[i], err = in.sweep(o.sweepSeed+int64(i), 1); err != nil {
			return nil, err
		}
	}
	tr, err := newTracedRunner(in)
	if err != nil {
		return nil, err
	}
	// The first pass covers the whole batch; traced runs then cycle through
	// it until the window closes.
	agg := &sweep.Result{FirstFailSeed: -1}
	var traced int64
	for rep.Correct && (traced < batch || time.Now().Before(deadline)) {
		i := traced % batch
		got, err := tr.run(o.sweepSeed + i)
		if err == nil {
			err = sameCounts(got, perSeed[i])
		}
		if err != nil {
			rep.Correct = false
			fmt.Fprintf(log, "FAIL: traced seed %d does not reproduce the verified run: %v\n", o.sweepSeed+i, err)
			break
		}
		if traced++; traced <= batch {
			mergeResult(agg, got)
		}
		if traced == batch {
			if err := sameCounts(agg, ref); err != nil {
				rep.Correct = false
				fmt.Fprintf(log, "FAIL: traced batch does not reproduce the verified sweep: %v\n", err)
			}
		}
	}
	rep.Metrics = layerMetrics(tr, su, e2ePerRun)
	fmt.Fprintf(log, "%d traced runs over %d seeds, all reproduce the verified sweep seed for seed: %v\n", traced, batch, rep.Correct)
	writeLayerTable(log, tr, rep.Metrics)
	return rep, nil
}

// processCPU is the CPU time the process has used, user plus system, over
// all its threads. A guest kernel with paravirtual steal accounting leaves
// out the time the hypervisor runs someone else, so unlike wall time it
// does not stretch when a co-tenant takes the host CPU.
func processCPU() (time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), nil
}

// memSamples is how many fresh processes peak_rss_mb is the lowest of.
const memSamples = 5

// memChildEnv, when set to "workload,wseed,start,seeds", makes the
// benchmark's executable a memory sample: it builds the workload, sweeps
// the seeds, prints its peak resident memory in MiB and exits.
const memChildEnv = "PERFBENCH_MEM_CHILD"

// peakRSSMB starts memSamples fresh processes of this executable, each of
// which builds the workload and sweeps the seeds [start, start+seeds), and
// returns the lowest of their peak resident memories in MiB. A process that
// sets up once and runs one sweep is what a user starts; the measuring
// process's own peak is the highest of thousands of collections over the
// window and differed by half between runs of the same seeds. The samples
// of one run mostly agree to the kilobyte, but a collector that falls
// behind while the host is busy raises a sample by up to a half, never
// lowers it, so the lowest sample is the one the program sets. Each sample
// reads its own VmHWM: the child's ru_maxrss would include the parent's
// peak, whose memory the child shares until it executes.
func peakRSSMB(o options, start, seeds int64, log io.Writer) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var mb []float64
	for range memSamples {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s,%d,%d,%d", memChildEnv, o.workload, o.wseed, start, seeds))
		cmd.Stderr = log
		out, err := cmd.Output()
		if err != nil {
			return 0, fmt.Errorf("memory sample: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(out)), 64)
		if err != nil {
			return 0, fmt.Errorf("memory sample: %w", err)
		}
		mb = append(mb, v)
	}
	fmt.Fprintf(log, "peak resident memory of %d one-sweep processes: %.2f MiB\n", memSamples, mb)
	return slices.Min(mb), nil
}

// memChild runs one memory sample as memChildEnv describes it and prints
// its peak resident memory to out.
func memChild(spec string, out io.Writer) error {
	var name string
	var wseed, start, seeds int64
	if _, err := fmt.Sscanf(strings.ReplaceAll(spec, ",", " "), "%s %d %d %d", &name, &wseed, &start, &seeds); err != nil {
		return fmt.Errorf("%s=%q: %w", memChildEnv, spec, err)
	}
	w, err := findWorkload(name)
	if err != nil {
		return err
	}
	in, err := w.build(wseed)
	if err != nil {
		return err
	}
	res, err := in.sweep(start, seeds)
	if err != nil {
		return err
	}
	if res.Failures > 0 {
		return fmt.Errorf("%d of %d runs failed verification (first seed %d: %v)",
			res.Failures, res.Runs, res.FirstFailSeed, res.FirstFailErr)
	}
	mb, err := vmHWM()
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(out, mb)
	return err
}

// vmHWM is the process's peak resident set size in MiB.
func vmHWM() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}
