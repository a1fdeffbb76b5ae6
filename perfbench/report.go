package main

import (
	"fmt"
	"io"
)

// div is a/b, or 0 when nothing was measured.
func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// layerNames are the timed layers, in the order the table prints them.
var layerNames = []string{
	"sim.sched", "sim.stop", "sim.runner", "sim.reset", "fd.oracle",
	"register.node", "consensus.node", "trace.record",
	"register.extract", "register.check", "sweep.merge",
}

// selfTimes returns each timed layer's self time in nanoseconds and the
// traced total they divide. The node layer excludes the oracle queries made
// inside steps, and the runner excludes its scheduler, stop and step calls
// and the recording cost. The cost of timing a call stays in: part of it in
// the call's own span, the rest in the runner's self time.
func selfTimes(tr *tracedRunner) (map[string]float64, float64) {
	sp := &tr.tot.sp
	var record int64
	if tr.untraced != nil {
		// Both runners carry the same wrappers, so their timing costs cancel.
		record = sp.run.ns - tr.tot.untraced.ns
	}
	self := map[string]float64{
		"sim.sched":        float64(sp.sched.ns),
		"sim.stop":         float64(sp.stop.ns),
		"sim.runner":       float64(sp.run.ns - sp.sched.ns - sp.stop.ns - sp.step.ns - record),
		"sim.reset":        float64(sp.reset.ns),
		"fd.oracle":        float64(sp.oracle.ns),
		"register.node":    0,
		"consensus.node":   0,
		"trace.record":     float64(record),
		"register.extract": float64(sp.extract.ns),
		"register.check":   float64(sp.check.ns),
		"sweep.merge":      float64(sp.merge.ns),
	}
	node := "consensus.node"
	if tr.in.w.store != nil {
		node = "register.node"
	}
	self[node] = float64(sp.step.ns - sp.oracle.ns)
	return self, float64(tr.tot.total.Nanoseconds())
}

// layerMetrics derives the per-layer metrics of a traced run. A layer the
// workload does not run reports 0.
func layerMetrics(tr *tracedRunner, su *setupResult, e2ePerRun float64) map[string]metric {
	tot := &tr.tot
	sp := &tot.sp
	runs, steps := float64(tot.runs), float64(tot.steps)
	self, total := selfTimes(tr)
	m := map[string]metric{
		"sim.sched.ns_per_step":          {div(self["sim.sched"], steps), "ns"},
		"sim.stop.ns_per_step":           {div(self["sim.stop"], steps), "ns"},
		"sim.runner.self_ns_per_step":    {div(self["sim.runner"], steps), "ns"},
		"sim.reset.us_per_run":           {div(self["sim.reset"], 1e3*runs), "us"},
		"sim.steps_per_run":              {div(steps, runs), "count"},
		"sim.dropped_per_run":            {div(float64(tot.dropped), runs), "count"},
		"sim.duplicated_per_run":         {div(float64(tot.duplicated), runs), "count"},
		"sim.delayed_per_run":            {div(float64(tot.delayed), runs), "count"},
		"fd.oracle.ns_per_call":          {div(self["fd.oracle"], float64(sp.oracle.calls)), "ns"},
		"fd.oracle.calls_per_step":       {div(float64(sp.oracle.calls), steps), "count"},
		"register.node.ns_per_step":      {div(self["register.node"], steps), "ns"},
		"consensus.node.ns_per_step":     {div(self["consensus.node"], steps), "ns"},
		"register.retransmits_per_op":    {div(float64(tot.retransmits), float64(tot.completed)), "count"},
		"register.fastread_ratio":        {div(float64(tot.fastReads), float64(tot.reads)), "ratio"},
		"register.fallbacks_per_read":    {div(float64(tot.fallbacks), float64(tot.reads)), "ratio"},
		"trace.record.us_per_run":        {div(self["trace.record"], 1e3*runs), "us"},
		"trace.events_per_op":            {div(float64(tot.events), float64(tot.completed)), "count"},
		"register.extract.us_per_run":    {div(self["register.extract"], 1e3*runs), "us"},
		"register.check.us_per_run":      {div(self["register.check"], 1e3*runs), "us"},
		"register.check.max_ops_per_key": {float64(tot.maxOpsPerKey), "count"},
		"sweep.merge.ns_per_run":         {div(self["sweep.merge"], runs), "ns"},
		"register.workload.gen_ms":       {0, "ms"},
		"setup.build_ms":                 {float64(su.build.Nanoseconds()) / 1e6, "ms"},
		"bench.trace_overhead":           {div(total/1e9, runs*e2ePerRun), "ratio"},
	}
	if tr.in.w.store != nil {
		m["register.workload.gen_ms"] = metric{float64(su.gen.Nanoseconds()) / 1e6, "ms"}
	}
	accounted := 0.0
	for _, l := range layerNames {
		m[l+".share"] = metric{div(self[l], total), "ratio"}
		accounted += self[l]
	}
	m["unaccounted.share"] = metric{div(total-accounted, total), "ratio"}
	return m
}

// writeLayerTable prints each layer's self time and share of the traced
// run, the unaccounted rest and the tracing overhead.
func writeLayerTable(w io.Writer, tr *tracedRunner, m map[string]metric) {
	runs := float64(tr.tot.runs)
	self, total := selfTimes(tr)
	fmt.Fprintf(w, "%-18s %14s %8s\n", "layer", "self us/run", "share")
	for _, l := range layerNames {
		fmt.Fprintf(w, "%-18s %14.2f %7.1f%%\n", l, div(self[l], 1e3*runs), 100*m[l+".share"].Value)
	}
	fmt.Fprintf(w, "%-18s %14s %7.1f%%\n", "unaccounted", "", 100*m["unaccounted.share"].Value)
	fmt.Fprintf(w, "%-18s %14.2f\n", "traced total", div(total, 1e3*runs))
	fmt.Fprintf(w, "traced run: %.2fx the end-to-end time per run\n", m["bench.trace_overhead"].Value)
}
