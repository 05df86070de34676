package main

import (
	"fmt"
	"time"

	faassched "github.com/faassched/faassched"
	"github.com/faassched/faassched/internal/cluster"
	"github.com/faassched/faassched/internal/core"
	"github.com/faassched/faassched/internal/firecracker"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/policy/cfs"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/simrun"
	"github.com/faassched/faassched/internal/workload"
)

// layerRun times the benchmark's own calls into single layers, for the
// layers the facade hides: server-paper's per-sub-run simrun.ExecStats
// and metrics.Collect, and fleet-warm's router replayed alone.
func layerRun(o options, w workloadDef, ins []*input, r *rep, sp *spans) error {
	r.Layer = map[string]float64{}
	switch w.name {
	case "server-paper":
		for i, in := range ins {
			out, err := paperLayers(in, sp)
			if err == nil {
				err = verify(o, w, i, out)
			}
			if err != nil && r.Err == "" {
				r.Err = fmt.Sprintf("window %d: %v", i, err)
			}
			r.Outs = append(r.Outs, out)
		}
		for _, p := range paperOpts {
			r.Layer["simrun.exec_s."+p.name] = sp.total("simrun.exec." + p.name)
		}
		r.Layer["metrics.collect_s"] = sp.total("metrics.collect")
	case "fleet-warm":
		var total replayResult
		for _, in := range ins {
			rr, err := routeReplay(in.seed, workload.Materialize(in.src), sp)
			if err != nil {
				return err
			}
			total.n += rr.n
			total.cold += rr.cold
			total.warm += rr.warm
			total.elapsed += rr.elapsed
		}
		r.Layer["cluster.route_ns_per_inv"] = float64(total.elapsed.Nanoseconds()) / float64(total.n)
		r.Layer["replay.cold_misses"] = float64(total.cold)
		r.Layer["replay.warm_hits"] = float64(total.warm)
	}
	return nil
}

// paperPolicy builds the policy the facade builds for server-paper's
// sub-run opts; the traced run's check that this path's output is
// bit-identical to the facade's proves the two agree.
func paperPolicy(opts faassched.Options) (ghost.Policy, error) {
	switch opts.Scheduler {
	case faassched.SchedulerCFS:
		return cfs.New(cfs.Params{}), nil
	case faassched.SchedulerHybrid:
		cfg := core.Config{
			FIFOCores: opts.Cores / 2,
			TimeLimit: core.TimeLimitConfig{Static: core.DefaultStaticLimit},
		}
		if err := cfg.Validate(opts.Cores); err != nil {
			return nil, err
		}
		return core.New(cfg), nil
	}
	return nil, fmt.Errorf("no layer recipe for scheduler %q", opts.Scheduler)
}

// paperLayers runs server-paper's three sub-runs the way the facade's
// Simulate does, but with spans around simrun.ExecStats and
// metrics.Collect.
func paperLayers(in *input, sp *spans) (*simOut, error) {
	results := make([]*faassched.Result, len(paperOpts))
	for i, p := range paperOpts {
		policy, err := paperPolicy(p.opts)
		if err != nil {
			return nil, err
		}
		add := simrun.AddTasks(workload.Tasks(in.invs))
		var fleet *firecracker.Fleet
		if p.opts.Firecracker {
			if fleet, err = firecracker.NewFleet(policy, firecracker.Config{}); err != nil {
				return nil, err
			}
			policy = fleet
			add = func(k *simkern.Kernel) error { return fleet.Launch(k, in.invs) }
		}
		var gstats ghost.Stats
		start := time.Now()
		kernel, err := simrun.ExecStats(simkern.DefaultConfig(p.opts.Cores), policy, ghost.Config{}, add, &gstats)
		mid := time.Now()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		set := metrics.Collect(kernel)
		end := time.Now()
		sp.add("simrun.exec."+p.name, "", start, mid)
		sp.add("metrics.collect."+p.name, "", mid, end)
		sp.add("metrics.collect", "", mid, end)
		res := &faassched.Result{
			Scheduler:   p.opts.Scheduler,
			Set:         set,
			Makespan:    kernel.Makespan(),
			Preemptions: set.TotalPreemptions(),
		}
		if fleet != nil {
			res.LaunchedVMs, res.FailedVMs = fleet.Launched(), fleet.Failed()
		}
		results[i] = res
	}
	return paperOut(len(in.invs), results)
}

type replayResult struct {
	n          int
	cold, warm int64
	elapsed    time.Duration
}

// routeReplay replays fleet-warm's arrivals through the router alone:
// the same fleet model, least-loaded dispatcher, warm-first wrapper and
// warm pools the sharded replay's router uses, booking demand open-loop
// exactly as it does. With faults off its cold-miss and warm-hit counts
// must equal the full run's coldstart counters.
func routeReplay(seed int64, invs []workload.Invocation, sp *spans) (replayResult, error) {
	model := cluster.NewFleetModel(warmServers, warmCores)
	disp, err := cluster.NewDispatcher(cluster.DispatchLeastLoaded, seed, model)
	if err != nil {
		return replayResult{}, err
	}
	pools := cluster.NewWarmPools(warmColdStart, warmServers)
	disp = cluster.WarmFirstDispatcher(disp, pools, model)
	candidates := make([]int, warmServers)
	for s := range candidates {
		candidates[s] = s
	}
	rr := replayResult{n: len(invs)}
	start := time.Now()
	for _, inv := range invs {
		s := disp.Pick(inv, candidates)
		var cold time.Duration
		if pools.IsCold(s, inv, inv.Arrival) {
			cold = warmColdStart.Latency
			rr.cold++
		} else {
			rr.warm++
		}
		finish := model.AssignDemand(s, inv.Arrival, inv.Duration+cold)
		pools.Book(s, inv, inv.Arrival, finish, cold > 0)
	}
	end := time.Now()
	sp.add("cluster.route_replay", "", start, end)
	rr.elapsed = end.Sub(start)
	if rr.n == 0 {
		return rr, fmt.Errorf("router replay: empty workload")
	}
	return rr, nil
}
