// The lockstep fleet run, the engine under every fixed fleet (Simulate,
// SimulateShardedExact, SimulateShardedWindowed). Nothing is materialized
// per server: at provider scale — 1,000 servers × a ×10 24 h Azure window
// ≈ 90M invocations — per-server shares would be gigabytes of slices
// before the first event fires. Instead routing and simulation stream
// together: a single router goroutine owns the arrival order (the Router
// keeps dispatch causally deterministic) and drives the lockstep Executor
// (executor.go) over contiguous server shards, opening each server at its
// first arrival. When the source drains, shards drain their machines and
// the results merge in shard-index order (a pairwise metrics.MergeTree
// for the windowed replay; an id-sorted record merge for the exact mode),
// so the result is bit-for-bit independent of how the shard goroutines
// were scheduled. See DESIGN.md §11.

package cluster

import (
	"fmt"
	"sort"
	"time"

	"github.com/faassched/faassched/internal/faults"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/obs"
	"github.com/faassched/faassched/internal/pricing"
	"github.com/faassched/faassched/internal/workload"
)

// ShardedReplay summarizes a windowed streaming sharded fleet run.
type ShardedReplay struct {
	// Servers and Shards echo the resolved topology.
	Servers, Shards int
	// Dispatch that routed the workload.
	Dispatch Dispatch
	// Invocations is the total arrival count routed.
	Invocations int
	// Makespan is the fleet-wide last completion time.
	Makespan time.Duration
	// Windowed holds the merged per-window + whole-run metrics.
	Windowed *metrics.WindowedAccumulator
	// Stats aggregates the per-server enclaves' full delegation counters
	// (messages, commits, fired vs elided ticks, migrations) across the
	// fleet.
	Stats ghost.Stats
	// Events sums scheduled kernel events across servers.
	Events uint64
	// PerShard breaks invocations and events down by shard, in shard
	// order — run-report material for spotting load imbalance.
	PerShard []obs.ShardUtil
	// Faults aggregates fault activity fleet-wide (router crash/straggler
	// windows plus per-machine kills/retries/give-ups); zero when the
	// plan is disabled.
	Faults faults.Stats
}

// SimulateShardedWindowed streams src through a sharded fleet, folding
// completions into one WindowedAccumulator per shard (width-checked,
// billed at tariff) and merging the shard accumulators pairwise in shard
// order. Memory is O(shards × windows + active tasks), independent of
// the workload length — this is the entry point for the 1,000-server
// ×10-volume multi-day replays.
func SimulateShardedWindowed(cfg Config, src workload.Source, tariff pricing.Tariff, width time.Duration) (*ShardedReplay, error) {
	run, err := runSharded(&cfg, src, false, tariff, width)
	if err != nil {
		return nil, err
	}
	rep := &ShardedReplay{
		Servers:     cfg.Servers,
		Shards:      len(run.ranges),
		Dispatch:    cfg.Dispatch,
		Invocations: run.invocations,
		Faults:      run.faults,
		PerShard:    make([]obs.ShardUtil, len(run.ranges)),
	}
	for i, rg := range run.ranges {
		su := obs.ShardUtil{Shard: i, Servers: rg[1] - rg[0]}
		for _, m := range run.machines[rg[0]:rg[1]] {
			if m == nil {
				continue
			}
			rep.Makespan = max(rep.Makespan, m.Makespan)
			rep.Stats.Accumulate(m.Stats)
			rep.Events += m.Events
			rep.Faults.Accumulate(m.Faults)
			su.Invocations += m.Invocations
			su.Events += m.Events
		}
		rep.PerShard[i] = su
	}
	if rep.Windowed, err = metrics.MergeTree(run.accs); err != nil {
		return nil, err
	}
	if rep.Windowed == nil {
		rep.Windowed, _ = metrics.NewWindowedAccumulator(tariff, width)
	}
	return rep, nil
}

// SimulateShardedExact streams src through a sharded fleet with an exact
// per-server record Set: records merged across shards and re-sorted by
// global invocation id, so the output is bit-for-bit identical for any
// shard count. Simulate is this run over a slice. It holds every record
// in memory, so use the windowed entry point for long horizons.
func SimulateShardedExact(cfg Config, src workload.Source) (*Result, error) {
	run, err := runSharded(&cfg, src, true, pricing.Tariff{}, 0)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Dispatch:   cfg.Dispatch,
		Servers:    cfg.Servers,
		PerServer:  make([]ServerResult, cfg.Servers),
		Assignment: run.assignment,
		Faults:     run.faults,
	}
	for s, m := range run.machines {
		sr := &res.PerServer[s]
		sr.Server = s
		if m == nil {
			continue
		}
		sr.Invocations = m.Invocations
		sr.Set = *run.sets[s]
		sort.Slice(sr.Set.Records, func(a, b int) bool { return sr.Set.Records[a].ID < sr.Set.Records[b].ID })
		sr.Makespan = m.Makespan
		sr.Preemptions = sr.Set.TotalPreemptions()
		sr.Stats = m.Stats
		sr.Events = m.Events
		sr.Faults = m.Faults
		res.Makespan = max(res.Makespan, m.Makespan)
		res.Preemptions += sr.Preemptions
		res.Stats.Accumulate(m.Stats)
		res.Events += m.Events
		res.Faults.Accumulate(m.Faults)
		res.Set.Records = append(res.Set.Records, sr.Set.Records...)
	}
	sort.Slice(res.Set.Records, func(i, j int) bool {
		return res.Set.Records[i].ID < res.Set.Records[j].ID
	})
	return res, nil
}

// shardedRun is a finished lockstep fleet run.
type shardedRun struct {
	ranges      [][2]int                       // shard i owns servers [ranges[i][0], ranges[i][1])
	machines    []*Machine                     // by server; nil for servers that never saw an arrival
	sets        []*metrics.Set                 // exact mode: by server
	accs        []*metrics.WindowedAccumulator // windowed mode: by shard
	invocations int
	assignment  []int        // exact mode only
	faults      faults.Stats // router-side crash and straggler windows
}

// runSharded is the router loop over the lockstep executor. It validates
// and defaults *cfg, routes src, and opens each server on its shard at
// its first arrival.
func runSharded(cfg *Config, src workload.Source, exact bool, tariff pricing.Tariff, width time.Duration) (*shardedRun, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if src == nil {
		return nil, fmt.Errorf("cluster: nil workload source")
	}
	ranges, err := shardPlan(cfg.Servers, cfg.Shards, cfg.Workers)
	if err != nil {
		return nil, err
	}
	router, err := NewRouter(cfg.Servers, cfg.Kernel.Cores, cfg.Dispatch, cfg.Seed, cfg.ColdStart, cfg.Obs.Registry())
	if err != nil {
		return nil, err
	}
	rf := newRouteFaults(cfg.Faults, router, cfg.Obs.Tracer())

	// Policies are built sequentially up front so factories need not be
	// goroutine-safe, and a fault plan they cannot serve fails here,
	// before the first arrival is routed.
	policies := make([]ghost.Policy, cfg.Servers)
	for s := range policies {
		if policies[s] = cfg.Policy(); policies[s] == nil {
			return nil, fmt.Errorf("cluster: Policy factory returned nil for server %d", s)
		}
		if _, err := cfg.Faults.Evictor(policies[s]); err != nil {
			return nil, fmt.Errorf("cluster: server %d: %w", s, err)
		}
	}
	run := &shardedRun{ranges: ranges, machines: make([]*Machine, cfg.Servers)}
	serverShard := make([]int, cfg.Servers)
	for i, rg := range ranges {
		for s := rg[0]; s < rg[1]; s++ {
			serverShard[s] = i
		}
	}
	if exact {
		run.sets = make([]*metrics.Set, cfg.Servers)
	} else {
		run.accs = make([]*metrics.WindowedAccumulator, len(ranges))
		for i := range run.accs {
			if run.accs[i], err = metrics.NewWindowedAccumulator(tariff, width); err != nil {
				return nil, err
			}
		}
	}
	x, err := NewExecutor(ExecConfig{
		Shards: len(ranges),
		Window: cfg.Window,
		Kernel: cfg.Kernel,
		Ghost:  cfg.Ghost,
		Obs:    cfg.Obs,
	})
	if err != nil {
		return nil, err
	}
	pg := cfg.Obs.Progress()
	idx := 0
	lastArr := time.Duration(-1)
	var routeErr error
	src(func(inv workload.Invocation) bool {
		if inv.Arrival < lastArr {
			routeErr = fmt.Errorf("cluster: invocations not sorted by arrival at index %d", idx)
			return false
		}
		lastArr = inv.Arrival
		x.Advance(inv.Arrival)
		cand, fallback := rf.route(inv.Arrival)
		r, s, _, err := router.Route(inv, idx, cand, fallback)
		if err != nil {
			routeErr = err
			return false
		}
		if exact {
			run.assignment = append(run.assignment, s)
		}
		m := run.machines[s]
		if m == nil {
			var sink metrics.Sink
			if exact {
				run.sets[s] = &metrics.Set{}
				sink = run.sets[s]
			} else {
				sink = run.accs[serverShard[s]]
			}
			var fm *faults.Machine
			if cfg.Faults.Enabled() {
				fm = faults.NewMachine(cfg.Faults, s)
			}
			m = x.Open(serverShard[s], s, policies[s], sink, fm)
			run.machines[s] = m
		}
		x.Admit(m, r)
		idx++
		if pg != nil {
			pg.Routed.Add(1)
		}
		return true
	})
	if err := x.Wait(); routeErr == nil {
		routeErr = err
	}
	if routeErr != nil {
		return nil, routeErr
	}
	if idx == 0 {
		return nil, fmt.Errorf("cluster: empty workload")
	}
	run.invocations = idx
	run.faults = rf.stats()
	if reg := cfg.Obs.Registry(); reg != nil {
		reg.Counter(obs.CInvocations).Add(int64(idx))
		if cfg.Faults.Enabled() {
			reg.Counter(obs.CFaultCrashes).Add(run.faults.Crashes)
			reg.Counter(obs.CFaultStragglers).Add(run.faults.StragglerWindows)
		}
	}
	return run, nil
}
