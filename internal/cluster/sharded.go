// The lockstep fleet run, the engine under every fixed fleet (Simulate,
// SimulateShardedExact, SimulateShardedWindowed). Nothing is materialized
// per server: at provider scale — 1,000 servers × a ×10 24 h Azure window
// ≈ 90M invocations — per-server shares would be gigabytes of slices
// before the first event fires. Instead routing and simulation stream
// together in lockstep: a single router goroutine owns the arrival order
// (the Router keeps dispatch causally deterministic), hands each Routed
// invocation to the shard owning its server, and broadcasts a watermark T
// once every arrival ≤ T has been handed over. Each shard worker owns its
// servers' machines outright: on an arrival it admits the task
// (simkern.AdmitTask, same pre-seeding-equivalent admit class the feeder
// path uses), on a watermark it advances its servers to T in
// server-index order, folding completions into a shard-local sink. When
// the source drains, shards drain their machines and the shard results
// merge in shard-index order (a pairwise metrics.MergeTree for the
// windowed replay; an id-sorted record merge for the exact mode), so the
// result is bit-for-bit independent of how the shard goroutines were
// scheduled. See DESIGN.md §11.

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
	"github.com/faassched/faassched/internal/simrun"
	"github.com/faassched/faassched/internal/workload"
)

// shardMsg is one router→shard handoff: either a routed arrival for one
// of the shard's servers, or a watermark releasing the shard to advance
// every server's clock to mark.
type shardMsg struct {
	r      Routed
	server int
	mark   time.Duration
	isMark bool
}

// shardChanBuf bounds each shard's in-flight handoffs. Watermarks act as
// barriers, so the buffer only smooths bursts within one chunk.
const shardChanBuf = 256

// shardedServer is one live machine inside a shard worker. Servers are
// created on first arrival, so fleet slots that never receive traffic
// cost nothing.
type shardedServer struct {
	inc         *simrun.Incremental
	feed        *serverFeed
	set         *metrics.Set // exact mode only
	invocations int
}

// shardWorker owns servers [lo, hi) of the fleet.
type shardWorker struct {
	cfg      *Config
	shard    int
	lo, hi   int
	policies []ghost.Policy
	exact    bool
	acc      *metrics.WindowedAccumulator // windowed mode's shard-local sink
	servers  []*shardedServer
	ch       chan shardMsg
	err      error
	makespan time.Duration
	stats    ghost.Stats
	events   uint64
	invs     int
	faults   faults.Stats
	// reg is the shard-local counter registry (nil when counters are
	// off); shard registries merge in shard-index order after the run,
	// MergeTree-style, so totals are bit-stable at any shard count.
	reg *obs.Registry
}

// run consumes the shard's handoff stream until the router closes it,
// then drains every machine. After a failure it keeps consuming (and
// discarding) messages so the router never blocks on a dead shard.
func (w *shardWorker) run(done chan<- struct{}) {
	defer func() { done <- struct{}{} }()
	for msg := range w.ch {
		if w.err != nil {
			continue
		}
		if msg.isMark {
			w.runTo(msg.mark)
		} else {
			w.admit(msg.server, msg.r)
		}
	}
	if w.err != nil {
		return
	}
	for _, sv := range w.servers {
		if sv == nil {
			continue
		}
		if err := sv.inc.Drain(); err != nil {
			w.err = err
			return
		}
		if m := sv.inc.Makespan(); m > w.makespan {
			w.makespan = m
		}
		w.stats.Accumulate(sv.inc.Stats())
		w.events += sv.inc.Events()
		w.invs += sv.invocations
		if fm := sv.feed.fm; fm != nil {
			w.faults.Accumulate(fm.Stats())
		}
	}
	if w.reg != nil {
		w.reg.AddGhostStats(w.stats)
		w.reg.Counter(obs.CKernEvents).Add(int64(w.events))
		if w.cfg.Faults.Enabled() {
			addFaultStats(w.reg, w.faults)
		}
	}
}

// admit creates the server on first arrival and hands it the task.
func (w *shardWorker) admit(server int, r Routed) {
	local := server - w.lo
	sv := w.servers[local]
	if sv == nil {
		sv = &shardedServer{}
		var sink metrics.Sink
		if w.exact {
			sv.set = &metrics.Set{}
			sink = sv.set
		} else {
			sink = w.acc
		}
		var fm *faults.Machine
		if w.cfg.Faults.Enabled() {
			fm = faults.NewMachine(w.cfg.Faults, server)
		}
		feed, policy, sink, err := newServerFeed(fm, w.policies[server], w.cfg.Obs.WrapSink(server, sink))
		if err != nil {
			w.err = err
			return
		}
		kcfg, gcfg := obsConfigs(w.cfg.Kernel, w.cfg.Ghost, w.cfg.Obs, server)
		if sv.inc, err = simrun.NewIncremental(kcfg, policy, gcfg, sink, feed.recycle); err != nil {
			w.err = err
			return
		}
		sv.feed = feed
		w.servers[local] = sv
	}
	t := sv.feed.task(r)
	if err := sv.inc.Admit(t); err != nil {
		w.err = err
		return
	}
	sv.invocations++
}

// runTo advances every live server to the watermark in server-index
// order — the fixed iteration order that makes the shard-local sink's
// push stream deterministic.
func (w *shardWorker) runTo(mark time.Duration) {
	for _, sv := range w.servers {
		if sv == nil {
			continue
		}
		if err := sv.inc.RunTo(mark); err != nil {
			w.err = err
			return
		}
	}
}

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
	// TicksFired / TicksElided mirror Stats.Ticks / Stats.TicksElided
	// (kept for existing callers).
	TicksFired, TicksElided int64
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
	workers, invocations, _, rfStats, err := runSharded(&cfg, src, false, tariff, width)
	if err != nil {
		return nil, err
	}
	rep := &ShardedReplay{
		Servers:     cfg.Servers,
		Shards:      len(workers),
		Dispatch:    cfg.Dispatch,
		Invocations: invocations,
	}
	rep.Faults.Accumulate(rfStats)
	accs := make([]*metrics.WindowedAccumulator, len(workers))
	rep.PerShard = make([]obs.ShardUtil, len(workers))
	for i, w := range workers {
		accs[i] = w.acc
		if w.makespan > rep.Makespan {
			rep.Makespan = w.makespan
		}
		rep.Stats.Accumulate(w.stats)
		rep.Events += w.events
		rep.Faults.Accumulate(w.faults)
		rep.PerShard[i] = obs.ShardUtil{Shard: i, Servers: w.hi - w.lo, Invocations: w.invs, Events: w.events}
	}
	rep.TicksFired = rep.Stats.Ticks
	rep.TicksElided = rep.Stats.TicksElided
	if rep.Windowed, err = metrics.MergeTree(accs); err != nil {
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
	workers, _, assignment, rfStats, err := runSharded(&cfg, src, true, pricing.Tariff{}, 0)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Dispatch:   cfg.Dispatch,
		Servers:    cfg.Servers,
		PerServer:  make([]ServerResult, cfg.Servers),
		Assignment: assignment,
	}
	res.Faults.Accumulate(rfStats)
	for s := range res.PerServer {
		res.PerServer[s].Server = s
	}
	for _, w := range workers {
		if w.makespan > res.Makespan {
			res.Makespan = w.makespan
		}
		res.Stats.Accumulate(w.stats)
		res.Events += w.events
		res.Faults.Accumulate(w.faults)
		for local, sv := range w.servers {
			if sv == nil {
				continue
			}
			s := w.lo + local
			sr := &res.PerServer[s]
			sr.Invocations = sv.invocations
			sr.Set = *sv.set
			sort.Slice(sr.Set.Records, func(a, b int) bool { return sr.Set.Records[a].ID < sr.Set.Records[b].ID })
			sr.Makespan = sv.inc.Makespan()
			sr.Preemptions = sr.Set.TotalPreemptions()
			sr.Stats = sv.inc.Stats()
			sr.Events = sv.inc.Events()
			if fm := sv.feed.fm; fm != nil {
				sr.Faults = fm.Stats()
			}
			res.Preemptions += sr.Preemptions
			res.Set.Records = append(res.Set.Records, sr.Set.Records...)
		}
	}
	sort.Slice(res.Set.Records, func(i, j int) bool {
		return res.Set.Records[i].ID < res.Set.Records[j].ID
	})
	return res, nil
}

// runSharded is the shared router + shard-worker engine. It validates and
// defaults *cfg, then returns the finished workers (in shard order), the
// total invocation count, the per-invocation assignment (exact mode
// only), and the router-side fault counters.
func runSharded(cfg *Config, src workload.Source, exact bool, tariff pricing.Tariff, width time.Duration) ([]*shardWorker, int, []int, faults.Stats, error) {
	fail := func(err error) ([]*shardWorker, int, []int, faults.Stats, error) {
		return nil, 0, nil, faults.Stats{}, err
	}
	if err := cfg.validate(); err != nil {
		return fail(err)
	}
	if src == nil {
		return fail(fmt.Errorf("cluster: nil workload source"))
	}
	chunk := cfg.Window
	if chunk == 0 {
		chunk = simrun.DefaultWindow
	}
	shards, err := shardPlan(cfg.Servers, cfg.Shards, cfg.Workers)
	if err != nil {
		return fail(err)
	}
	router, err := NewRouter(cfg.Servers, cfg.Kernel.Cores, cfg.Dispatch, cfg.Seed, cfg.ColdStart, cfg.Obs.Registry())
	if err != nil {
		return fail(err)
	}
	rf := newRouteFaults(cfg.Faults, router, cfg.Obs.Tracer())

	// Policies are built sequentially up front so factories need not be
	// goroutine-safe.
	policies := make([]ghost.Policy, cfg.Servers)
	for s := range policies {
		if policies[s] = cfg.Policy(); policies[s] == nil {
			return fail(fmt.Errorf("cluster: Policy factory returned nil for server %d", s))
		}
	}

	workers := make([]*shardWorker, len(shards))
	serverShard := make([]int, cfg.Servers)
	done := make(chan struct{})
	for i, rg := range shards {
		w := &shardWorker{
			cfg:      cfg,
			shard:    i,
			lo:       rg[0],
			hi:       rg[1],
			policies: policies,
			exact:    exact,
			servers:  make([]*shardedServer, rg[1]-rg[0]),
			ch:       make(chan shardMsg, shardChanBuf),
		}
		if cfg.Obs.Registry() != nil {
			w.reg = obs.NewRegistry()
		}
		if !exact {
			if w.acc, err = metrics.NewWindowedAccumulator(tariff, width); err != nil {
				return fail(err)
			}
		}
		for s := rg[0]; s < rg[1]; s++ {
			serverShard[s] = i
		}
		workers[i] = w
	}
	for _, w := range workers {
		go w.run(done)
	}

	// Router-side observation: watermark tallies and progress live on
	// this single goroutine, so they are shard-count invariant by
	// construction; per-server enclave counters fold in via the shard
	// registries instead.
	tr := cfg.Obs.Tracer()
	pg := cfg.Obs.Progress()
	var wmCount *obs.Counter
	if reg := cfg.Obs.Registry(); reg != nil {
		wmCount = reg.Counter(obs.CWatermarks)
	}

	var assignment []int
	idx := 0
	lastArr := time.Duration(-1)
	nextMark := chunk
	var routeErr error
	src(func(inv workload.Invocation) bool {
		if inv.Arrival < lastArr {
			routeErr = fmt.Errorf("cluster: invocations not sorted by arrival at index %d", idx)
			return false
		}
		lastArr = inv.Arrival
		// A watermark T is only safe once an arrival strictly beyond T
		// proves every arrival ≤ T has been handed over.
		for inv.Arrival > nextMark {
			for _, w := range workers {
				w.ch <- shardMsg{mark: nextMark, isMark: true}
			}
			if wmCount != nil {
				wmCount.Inc()
			}
			tr.Watermark(nextMark, int64(idx))
			if pg != nil {
				pg.Watermark.Store(int64(nextMark))
			}
			nextMark += chunk
		}
		cand, fallback := rf.route(inv.Arrival)
		r, s, _, err := router.Route(inv, idx, cand, fallback)
		if err != nil {
			routeErr = err
			return false
		}
		if exact {
			assignment = append(assignment, s)
		}
		workers[serverShard[s]].ch <- shardMsg{r: r, server: s}
		idx++
		if pg != nil {
			pg.Routed.Add(1)
		}
		return true
	})
	for _, w := range workers {
		close(w.ch)
	}
	for range workers {
		<-done
	}
	if routeErr != nil {
		return fail(routeErr)
	}
	if idx == 0 {
		return fail(fmt.Errorf("cluster: empty workload"))
	}
	for _, w := range workers {
		if w.err != nil {
			return fail(fmt.Errorf("cluster: shard %d (servers %d-%d): %w", w.shard, w.lo, w.hi-1, w.err))
		}
	}
	rfStats := rf.stats()
	if reg := cfg.Obs.Registry(); reg != nil {
		regs := make([]*obs.Registry, len(workers))
		for i, w := range workers {
			regs[i] = w.reg
		}
		reg.Merge(obs.MergeRegistryTree(regs))
		reg.Counter(obs.CInvocations).Add(int64(idx))
		if cfg.Faults.Enabled() {
			reg.Counter(obs.CFaultCrashes).Add(rfStats.Crashes)
			reg.Counter(obs.CFaultStragglers).Add(rfStats.StragglerWindows)
		}
	}
	return workers, idx, assignment, rfStats, nil
}
