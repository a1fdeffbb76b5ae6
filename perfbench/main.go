// Command perfbench is the repository benchmark. For one workload it runs
// the user-facing sweep entry points (register.StoreSweep, consensus.Sweep)
// end to end with their verification on and prints the end-to-end metrics;
// with --trace 1 it instead times each layer's public boundaries from the
// outside over the same seeds and prints the per-layer metrics. The last
// line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload store-read --seed 1 --seconds 10 --trace 0
//
// --seed n selects the sweep seeds, starting at n<<20; the workload itself
// comes from --wseed, which defaults to defaultWorkloadSeed. --held-out
// selects the held-out seed pair instead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
)

// sweepSeedShift spaces the sweep seed ranges of consecutive --seed values
// far apart, so no two benchmark seeds share a run.
const sweepSeedShift = 20

// defaultWorkloadSeed generates every workload unless --wseed says
// otherwise. A fixed workload keeps runs with different --seed values
// comparable: they differ in schedules and fault decisions, not in how many
// writes the generated scripts happen to hold. heldOutWorkloadSeed and
// heldOutSweepSeed are the held-out pair, kept for confirming a claim on
// inputs its change was not tuned on.
const (
	defaultWorkloadSeed = 1
	heldOutWorkloadSeed = 7919
	heldOutSweepSeed    = 1 << 40
)

func main() {
	if spec := os.Getenv(memChildEnv); spec != "" {
		if err := memChild(spec, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: memory sample:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	var seed int64
	var traceFlag int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Int64Var(&seed, "seed", 1, "benchmark seed: sweep seeds from n<<20")
	fs.Int64Var(&o.wseed, "wseed", defaultWorkloadSeed, "workload generator seed")
	fs.Float64Var(&o.seconds, "seconds", 10, "measuring window in seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 times each layer instead of the end-to-end path")
	heldOut := fs.Bool("held-out", false, "use the held-out workload and sweep seeds")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	o.sweepSeed = seed << sweepSeedShift
	if *heldOut {
		o.wseed, o.sweepSeed = heldOutWorkloadSeed, heldOutSweepSeed
	}
	if traceFlag != 0 && traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive")
		os.Exit(2)
	}
	rep, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !rep.Correct {
		os.Exit(1)
	}
}
