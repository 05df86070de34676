package main

import (
	"context"
	"fmt"
	"math"
	"os"
)

// metricDef names one reported metric and its unit; BENCHMARK.json lists
// the same names and units (the self-test holds the two together).
type metricDef struct{ name, unit string }

// endToEnd are the untraced run's metrics, medians over rounds. The
// sim_ ones are means over the run's windows of figures of the simulated
// system (simFigures names them alike).
var endToEnd = []metricDef{
	{"inv_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"allocs_per_inv", "count"},
	{"alloc_bytes_per_inv", "B"},
	{"sim_cost_usd", "USD"},
	{"sim_exec_p99_s", "s"},
	{"sim_goodput", "ratio"},
	{"sim_server_s", "s"},
}

// perLayer are the traced run's metrics. The sim_ ones are figures of
// the simulated system that vary too much from seed to seed to bound
// (response p99 on fleet-warm) or exist on one workload only (the CFS
// cost multiple); they repeat exactly for a seed.
func perLayer() []metricDef {
	defs := []metricDef{
		{"trace.generate_s", "s"},
		{"workload.build_s", "s"},
		{"workload.pull_s", "s"},
		{"cluster.route_ns_per_inv", "ns"},
		{"cluster.warm_hit_ratio", "ratio"},
		{"cluster.allocs_per_inv", "count"},
		{"coldstart.cold_misses", "count"},
		{"coldstart.warm_hits", "count"},
		{"sharded.watermarks_per_inv", "count"},
		{"simkern.events_per_inv", "count"},
		{"simkern.allocs_per_inv", "count"},
		{"ghost.ticks_per_inv", "count"},
		{"ghost.ticks_elided_per_inv", "count"},
		{"ghost.msgs_per_inv", "count"},
		{"ghost.commit_fail_ratio", "ratio"},
		{"policy.preemptions_per_inv.cfs", "count"},
		{"policy.preemptions_per_inv.hybrid", "count"},
		{"policy.preemptions_per_inv.microvm", "count"},
		{"policy.allocs_per_inv", "count"},
		{"simrun.exec_s.cfs", "s"},
		{"simrun.exec_s.hybrid", "s"},
		{"simrun.exec_s.microvm", "s"},
		{"metrics.collect_s", "s"},
		{"metrics.allocs_per_inv", "count"},
		{"firecracker.launch_fail_ratio", "ratio"},
		{"autoscale.launches", "count"},
		{"autoscale.mean_servers", "count"},
		{"autoscale.peak_servers", "count"},
		{"autoscale.goroutines_peak", "count"},
		{"faults.retry_amplification", "ratio"},
		{"faults.kills_per_inv", "count"},
		{"faults.giveups", "count"},
		{"faults.wasted_cpu_frac", "ratio"},
		{"faults.allocs_per_inv", "count"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"obs.trace_overhead_frac", "ratio"},
		{"profile.cpu_samples", "count"},
		{"profile.alloc_records", "count"},
		{"sim_invocations", "count"},
		{"sim_resp_p99_s", "s"},
		{"sim_cfs_cost_ratio", "ratio"},
	}
	for _, m := range modules {
		defs = append(defs, metricDef{m + ".cpu_share", "ratio"})
	}
	return defs
}

// allocModules maps the allocs_per_inv layers to the modules they sum.
var allocModules = map[string][]string{
	"cluster": {"cluster"},
	"simkern": {"simkern", "queue"},
	"policy":  {"policy.cfs", "policy.fifo", "policy.core"},
	"metrics": {"metrics"},
	"faults":  {"faults"},
}

// traced is the --trace 1 run: one untraced round as the baseline, one
// traced child over every window, and one child that times single
// layers. Layer metrics are per invocation of the whole run. It fails the
// check when the traced run simulated anything different from the
// untraced one, when the CPU shares do not reconcile, or when the router
// replay disagrees with the run's cold-start counters.
func traced(o options) (*result, error) {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	windows := shapes[o.size][o.workload].windows
	res := &result{Metrics: map[string]metric{}}
	base, _, err := round(ctx, o, windows, make([]*simOut, windows), res)
	if err != nil {
		return nil, fmt.Errorf("%s: untraced baseline: %w", o.workload, err)
	}
	prof, err := spawn(ctx, o, "profile", 0)
	if err != nil {
		return nil, err
	}
	lay, err := spawn(ctx, o, "layers", 0)
	if err != nil {
		return nil, err
	}
	res.Attempted += 2
	var problems []string
	for _, c := range []struct {
		name string
		r    *rep
	}{{"traced", prof}, {"layers", lay}} {
		if c.r.Err != "" {
			problems = append(problems, c.name+" run: "+c.r.Err)
		}
	}
	if err := sameOutput(base.Outs, prof.Outs); err != nil {
		problems = append(problems, "traced run's output differs from the untraced run's: "+err.Error())
	}
	if lay.Outs != nil {
		if err := sameOutput(base.Outs, lay.Outs); err != nil {
			problems = append(problems, "layer-by-layer run's output differs from the facade's: "+err.Error())
		}
	}

	n := float64(base.Invs)
	reg := func(k string) float64 { return prof.Layer["reg."+k] }
	per := func(v float64) float64 { return v / n }
	frac := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	cold, warm := reg("coldstart.cold_misses"), reg("coldstart.warm_hits")
	if o.workload == "fleet-warm" {
		if lay.Layer["replay.cold_misses"] != cold || lay.Layer["replay.warm_hits"] != warm {
			problems = append(problems, fmt.Sprintf("router replay counted %v cold misses and %v warm hits, the run's counters %v and %v",
				lay.Layer["replay.cold_misses"], lay.Layer["replay.warm_hits"], cold, warm))
		}
	}
	sum := 0.0
	for _, m := range modules {
		sum += prof.Layer["cpu."+m]
	}
	if math.Abs(sum-1) > 1e-9 {
		problems = append(problems, fmt.Sprintf("module CPU shares sum to %v, not 1", sum))
	}

	v := map[string]float64{
		"trace.generate_s":           prof.GenerateS,
		"workload.build_s":           prof.BuildS,
		"workload.pull_s":            prof.Layer["workload.pull_s"],
		"cluster.route_ns_per_inv":   lay.Layer["cluster.route_ns_per_inv"],
		"cluster.warm_hit_ratio":     frac(warm, warm+cold),
		"coldstart.cold_misses":      cold,
		"coldstart.warm_hits":        warm,
		"sharded.watermarks_per_inv": per(reg("sharded.watermarks")),
		"simkern.events_per_inv":     per(reg("kern.events_scheduled")),
		"ghost.ticks_per_inv":        per(reg("ghost.ticks_fired")),
		"ghost.ticks_elided_per_inv": per(reg("ghost.ticks_elided")),
		"ghost.msgs_per_inv":         per(reg("ghost.msgs_delivered")),
		"ghost.commit_fail_ratio":    frac(reg("ghost.commit_failures"), reg("ghost.commits")),
		"simrun.exec_s.cfs":          lay.Layer["simrun.exec_s.cfs"],
		"simrun.exec_s.hybrid":       lay.Layer["simrun.exec_s.hybrid"],
		"simrun.exec_s.microvm":      lay.Layer["simrun.exec_s.microvm"],
		"metrics.collect_s":          lay.Layer["metrics.collect_s"],
		"autoscale.launches":         reg("autoscale.launches"),
		"autoscale.goroutines_peak":  prof.Layer["autoscale.goroutines_peak"],
		"runtime.gc_cpu_frac":        base.GCCPUFrac,
		"obs.trace_overhead_frac":    prof.WallS/base.WallS - 1,
		"profile.cpu_samples":        prof.Layer["profile.cpu_samples"],
		"profile.alloc_records":      prof.Layer["profile.alloc_records"],
	}
	for k, x := range meanFigures(base.Outs) {
		v[k] = x
	}
	allocsPerInv := float64(base.Mallocs) / n
	for layer, mods := range allocModules {
		s := 0.0
		for _, m := range mods {
			s += prof.Layer["alloc."+m]
		}
		v[layer+".allocs_per_inv"] = s * allocsPerInv
	}
	for _, m := range modules {
		v[m+".cpu_share"] = prof.Layer["cpu."+m]
	}

	for _, d := range perLayer() {
		x, ok := v[d.name]
		if !ok {
			x = 0 // the layer does not run in this workload
		}
		res.Metrics[d.name] = metric{Value: x, Unit: d.unit}
	}
	if len(problems) > 0 {
		res.Failed++
		for _, p := range problems {
			fmt.Fprintf(os.Stderr, "perfbench: TRACED RUN CHECK FAILED (%s seed %d): %s\n", o.workload, o.seed, p)
		}
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// meanFigures averages the windows' simulated figures.
func meanFigures(outs []*simOut) map[string]float64 {
	mean := map[string]float64{}
	for _, o := range outs {
		for k, v := range simFigures(o) {
			mean[k] += v / float64(len(outs))
		}
	}
	return mean
}
