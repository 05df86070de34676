// Package cluster scales the single-enclave simulation out to a fleet: N
// independent servers, each its own simkern.Kernel plus ghost enclave
// running a per-server scheduling policy, fronted by a dispatch policy
// that routes every invocation to one server at its arrival time.
//
// Dispatch happens first and is fully deterministic (the dispatcher sees
// only its own causal load model, never simulated server state), so the
// per-server simulations are independent and run concurrently — a bounded
// worker pool drains contiguous server shards, each shard's servers run
// sequentially on one worker — with a deterministic merge of the
// per-server metric sets afterwards. Wall-clock therefore scales with
// available host cores, not with fleet size. See DESIGN.md §5 and §11.
package cluster

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/faassched/faassched/internal/faults"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/obs"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/simrun"
	"github.com/faassched/faassched/internal/workload"
)

// Config configures a fleet simulation.
type Config struct {
	// Servers is the fleet size. Must be >= 1.
	Servers int
	// Dispatch picks the routing policy. Empty means DispatchLeastLoaded.
	Dispatch Dispatch
	// Seed drives the randomized dispatch policies. Zero means 1.
	Seed int64
	// Kernel is the per-server machine configuration (cores, switch cost,
	// …). Every server gets an identical machine.
	Kernel simkern.Config
	// Policy returns a fresh per-server scheduling policy. It is called
	// once per server, sequentially, before simulation starts.
	Policy func() ghost.Policy
	// Ghost configures each server's delegation enclave.
	Ghost ghost.Config
	// Streamed drives every server through the lazy-admission streaming
	// dataflow (simrun.ExecStream): each server gets its own completion
	// sink and task pool, so per-server peak memory is bounded by active
	// tasks plus the look-ahead window rather than the routed share. The
	// per-server sinks merge exactly as the materialized sets do (records
	// re-sorted by global invocation id), so results are bit-for-bit
	// identical either way — provided the policy never calls
	// Env.AbortTask (see simrun.ExecStream's precondition; no dispatchable
	// policy does).
	Streamed bool
	// Window overrides the streamed feeders' look-ahead half-window and
	// the lockstep replay's watermark spacing; zero means
	// simrun.DefaultWindow, and the materialized dataflow ignores it. It
	// trades memory against feeder and watermark overhead only: results
	// do not depend on it (DESIGN.md §7).
	Window time.Duration
	// ColdStart configures the per-function warm-instance model (see
	// coldstart.go and DESIGN.md §10). The zero value disables it, and a
	// disabled model leaves routing and task demands byte-for-byte
	// unchanged.
	ColdStart ColdStartConfig
	// Shards partitions the fleet into contiguous server ranges; each
	// shard's servers run sequentially on one pooled worker and fold into
	// a shard-local result before the deterministic cross-shard merge.
	// Zero picks min(Servers, 4×Workers). Results are bit-for-bit
	// independent of the shard count and of worker scheduling
	// (DESIGN.md §11).
	Shards int
	// Workers bounds the worker pool draining the shard queue. Zero
	// means GOMAXPROCS.
	Workers int
	// Obs enables the observability layer (counters, trace export,
	// progress). Nil disables it entirely; observation never alters
	// simulated behavior (DESIGN.md §13).
	Obs *obs.Obs
	// Faults is the deterministic fault plan (server crashes, straggler
	// windows, invocation timeouts, retry/backoff — DESIGN.md §14). The
	// zero value disables the layer and leaves every code path
	// byte-for-byte unchanged. An enabled plan forces the streaming
	// per-server dataflow (kills and retries need the abort/admit seam),
	// and plans that kill require a ghost.TaskEvictor policy (fifo, cfs,
	// hybrid).
	Faults faults.Config
}

// shardRanges splits n servers into at most shards contiguous [lo, hi)
// ranges of near-equal size, in server order.
func shardRanges(n, shards int) [][2]int {
	if shards > n {
		shards = n
	}
	if shards < 1 {
		shards = 1
	}
	ranges := make([][2]int, 0, shards)
	lo := 0
	for i := 0; i < shards; i++ {
		hi := lo + (n-lo)/(shards-i)
		ranges = append(ranges, [2]int{lo, hi})
		lo = hi
	}
	return ranges
}

// shardPlan resolves the Shards/Workers knobs against the fleet size.
func shardPlan(servers, shards, workers int) ([][2]int, int, error) {
	if shards < 0 {
		return nil, 0, fmt.Errorf("cluster: Shards must be >= 0, got %d", shards)
	}
	if workers < 0 {
		return nil, 0, fmt.Errorf("cluster: Workers must be >= 0, got %d", workers)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if shards == 0 {
		shards = 4 * workers
	}
	ranges := shardRanges(servers, shards)
	if workers > len(ranges) {
		workers = len(ranges)
	}
	return ranges, workers, nil
}

// ServerResult is one server's share of a fleet simulation.
type ServerResult struct {
	// Server is the fleet index.
	Server int
	// Invocations is how many invocations were routed here.
	Invocations int
	// Set holds this server's per-invocation records.
	Set metrics.Set
	// Makespan is this server's last completion time.
	Makespan time.Duration
	// Preemptions is this server's total preemption count.
	Preemptions int
	// Stats holds this server's enclave delegation counters (messages,
	// commits, fired vs elided agent ticks).
	Stats ghost.Stats
	// Events is how many kernel events this server's run scheduled.
	Events uint64
	// Faults holds this server's fault-machine counters (kills, retries,
	// give-ups); zero when the fault plan is disabled.
	Faults faults.Stats
}

// Result is a finished fleet simulation.
type Result struct {
	// Dispatch that routed the workload.
	Dispatch Dispatch
	// Servers is the fleet size.
	Servers int
	// Set merges every server's records, ordered by invocation index
	// (Record.ID is 1 + the index into the input slice).
	Set metrics.Set
	// Makespan is the fleet-wide last completion time.
	Makespan time.Duration
	// Preemptions sums preemptions across servers.
	Preemptions int
	// PerServer holds each server's individual result, by fleet index.
	PerServer []ServerResult
	// Assignment maps each input invocation index to its server.
	Assignment []int
	// Stats sums enclave delegation counters across servers.
	Stats ghost.Stats
	// Events sums scheduled kernel events across servers.
	Events uint64
	// Faults aggregates fault activity fleet-wide: router-side crash and
	// straggler windows plus every machine's kills/retries/give-ups.
	Faults faults.Stats
}

// Imbalance reports max-over-mean busy work across servers: 1.0 is a
// perfectly even split, higher means the dispatch policy concentrated
// load. It returns 0 when the fleet did no work.
func Imbalance(perServer []ServerResult) float64 {
	var total, max time.Duration
	for _, s := range perServer {
		w := s.Set.TotalExecution()
		total += w
		if w > max {
			max = w
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(perServer))
	return float64(max) / mean
}

// ImbalanceRatio reports Imbalance over this result's servers.
func (r *Result) ImbalanceRatio() float64 { return Imbalance(r.PerServer) }

// Routed is one invocation tagged with its global (zero-based) index into
// the run's arrival order; the index fixes the task ID (Idx+1) and with it
// the deterministic merge order.
type Routed struct {
	Inv workload.Invocation
	Idx int
	// ColdStart is the instance spin-up latency this routing decision
	// incurred (zero on warm hits and with the model disabled). The
	// per-server run adds it to the task's service demand.
	ColdStart time.Duration
	// Slow is the straggler surcharge the fault plan charges work that
	// starts inside a slowdown window (zero outside windows and with the
	// plan disabled); folded into service demand like ColdStart.
	Slow time.Duration
}

// applyColdStart folds the routing decision's demand surcharges into the
// task's service demand: instance init is CPU work on the instance
// (which is exactly how OS scheduling and function start behavior
// interact), and a straggler window stretches CPU work the same way.
// Both the slice path and the task-pool path apply the same fold.
func (r Routed) applyColdStart(t *simkern.Task) *simkern.Task {
	if r.ColdStart > 0 {
		t.Work += r.ColdStart
		t.ColdStart = r.ColdStart
	}
	if r.Slow > 0 {
		t.Work += r.Slow
	}
	return t
}

// Simulate routes invs across the fleet and simulates every server.
func Simulate(cfg Config, invs []workload.Invocation) (*Result, error) {
	if cfg.Servers < 1 {
		return nil, fmt.Errorf("cluster: Servers must be >= 1, got %d", cfg.Servers)
	}
	if cfg.Policy == nil {
		return nil, fmt.Errorf("cluster: nil Policy factory")
	}
	if len(invs) == 0 {
		return nil, fmt.Errorf("cluster: empty workload")
	}
	if cfg.Kernel.Cores < 1 {
		return nil, fmt.Errorf("cluster: Kernel.Cores must be >= 1, got %d", cfg.Kernel.Cores)
	}
	if cfg.Dispatch == "" {
		cfg.Dispatch = DispatchLeastLoaded
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if err := cfg.Faults.Validate(); err != nil {
		return nil, err
	}
	for i := 1; i < len(invs); i++ {
		if invs[i].Arrival < invs[i-1].Arrival {
			return nil, fmt.Errorf("cluster: invocations not sorted by arrival at index %d", i)
		}
	}

	// Phase 1: route every invocation, in arrival order, deterministically.
	// The warm pools, like the fleet model, are causal front-end state:
	// both update single-threaded here, so routing (and with it every
	// cold/warm decision) is fixed before any server simulates.
	model := NewFleetModel(cfg.Servers, cfg.Kernel.Cores)
	disp, err := NewDispatcher(cfg.Dispatch, cfg.Seed, model)
	if err != nil {
		return nil, err
	}
	var pools *WarmPools
	if cfg.ColdStart.Enabled() {
		pools = NewWarmPools(cfg.ColdStart, cfg.Servers)
		if cfg.ColdStart.WarmFirst {
			disp = WarmFirstDispatcher(disp, pools, model)
		}
	}
	candidates := make([]int, cfg.Servers)
	for s := range candidates {
		candidates[s] = s
	}
	rf := newRouteFaults(cfg.Faults, cfg.Servers, model, pools, cfg.Obs.Tracer())
	// Routing runs single-threaded, so the cold-start tallies and
	// progress publishing live here on the control thread.
	var warmHits, coldMisses *obs.Counter
	if reg := cfg.Obs.Registry(); reg != nil && pools != nil {
		warmHits = reg.Counter(obs.CColdWarmHits)
		coldMisses = reg.Counter(obs.CColdMisses)
	}
	pg := cfg.Obs.Progress()
	assignment := make([]int, len(invs))
	perServer := make([][]Routed, cfg.Servers)
	for i, inv := range invs {
		cand := candidates
		if rf != nil {
			cand = rf.route(inv.Arrival)
		}
		var s int
		if rf != nil && len(cand) == 0 {
			s = rf.fallback()
		} else {
			s = disp.Pick(inv, cand)
		}
		if s < 0 || s >= cfg.Servers {
			return nil, fmt.Errorf("cluster: dispatch %q picked server %d of %d", cfg.Dispatch, s, cfg.Servers)
		}
		var slow time.Duration
		if rf != nil {
			slow = rf.slow(s, inv.Arrival, inv.Duration)
		}
		var cold time.Duration
		if pools == nil {
			model.AssignDemand(s, inv.Arrival, inv.Duration+slow)
		} else {
			if pools.IsCold(s, inv, inv.Arrival) {
				cold = cfg.ColdStart.Latency
			}
			finish := model.AssignDemand(s, inv.Arrival, inv.Duration+cold+slow)
			pools.Book(s, inv, inv.Arrival, finish, cold > 0)
			if cold > 0 {
				if coldMisses != nil {
					coldMisses.Inc()
				}
			} else if warmHits != nil {
				warmHits.Inc()
			}
		}
		assignment[i] = s
		perServer[s] = append(perServer[s], Routed{Inv: inv, Idx: i, ColdStart: cold, Slow: slow})
		if pg != nil {
			pg.Routed.Add(1)
			pg.Watermark.Store(int64(inv.Arrival))
		}
	}

	// Policies are built sequentially so factories need not be
	// goroutine-safe.
	policies := make([]ghost.Policy, cfg.Servers)
	for s := range policies {
		if policies[s] = cfg.Policy(); policies[s] == nil {
			return nil, fmt.Errorf("cluster: Policy factory returned nil for server %d", s)
		}
	}

	// Phase 2: simulate the fleet on a bounded worker pool over server
	// shards. Each shard's servers run sequentially on whichever worker
	// claims it; results land at the server's own index, so worker
	// scheduling cannot perturb the merge below.
	shards, workers, err := shardPlan(cfg.Servers, cfg.Shards, cfg.Workers)
	if err != nil {
		return nil, err
	}
	results := make([]ServerResult, cfg.Servers)
	errs := make([]error, cfg.Servers)
	jobs := make(chan [2]int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := range jobs {
				for s := r[0]; s < r[1]; s++ {
					results[s], errs[s] = runServer(s, cfg, policies[s], perServer[s])
				}
			}
		}()
	}
	for _, r := range shards {
		jobs <- r
	}
	close(jobs)
	wg.Wait()
	for s, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("cluster: server %d: %w", s, err)
		}
	}

	// Deterministic merge: concatenate per-server sets, then restore the
	// global invocation order by ID.
	res := &Result{
		Dispatch:   cfg.Dispatch,
		Servers:    cfg.Servers,
		PerServer:  results,
		Assignment: assignment,
	}
	for _, sr := range results {
		res.Set.Records = append(res.Set.Records, sr.Set.Records...)
		res.Preemptions += sr.Preemptions
		res.Stats.Accumulate(sr.Stats)
		res.Events += sr.Events
		res.Faults.Accumulate(sr.Faults)
		if sr.Makespan > res.Makespan {
			res.Makespan = sr.Makespan
		}
	}
	if rf != nil {
		res.Faults.Accumulate(rf.stats())
	}
	sort.Slice(res.Set.Records, func(i, j int) bool {
		return res.Set.Records[i].ID < res.Set.Records[j].ID
	})
	if reg := cfg.Obs.Registry(); reg != nil {
		reg.AddGhostStats(res.Stats)
		reg.Counter(obs.CKernEvents).Add(int64(res.Events))
		reg.Counter(obs.CInvocations).Add(int64(len(invs)))
		if rf != nil {
			addFaultStats(reg, res.Faults)
		}
	}
	return res, nil
}

// runServer simulates one server's routed share on a fresh kernel.
func runServer(s int, cfg Config, policy ghost.Policy, share []Routed) (ServerResult, error) {
	out := ServerResult{Server: s, Invocations: len(share)}
	if len(share) == 0 {
		return out, nil
	}
	kcfg, gcfg := obsConfigs(cfg.Kernel, cfg.Ghost, cfg.Obs, s)
	var k *simkern.Kernel
	var err error
	var fm *faults.Machine
	if cfg.Faults.Enabled() {
		fm = faults.NewMachine(cfg.Faults, s)
	}
	if cfg.Streamed || fm != nil {
		// Faults force the streaming dataflow: kills and retries work
		// through the abort/admit seam only the per-server stream has.
		k, out.Set, err = runStreamed(s, cfg, kcfg, gcfg, policy, fm, share, &out.Stats)
		if fm != nil {
			out.Faults = fm.Stats()
		}
	} else {
		tasks := make([]*simkern.Task, 0, len(share))
		for _, r := range share {
			tasks = append(tasks, r.applyColdStart(workload.Task(r.Inv, simkern.TaskID(r.Idx+1))))
		}
		if k, err = simrun.ExecStats(kcfg, policy, gcfg, simrun.AddTasks(tasks), &out.Stats); err == nil {
			out.Set = metrics.Collect(k)
			cfg.Obs.Tracer().TaskSet(s, &out.Set)
			if pg := cfg.Obs.Progress(); pg != nil {
				pg.Done.Add(int64(len(out.Set.Records)))
			}
		}
	}
	if err != nil {
		return out, err
	}
	out.Makespan = k.Makespan()
	out.Events = k.EventSeq()
	out.Preemptions = out.Set.TotalPreemptions()
	return out, nil
}

// obsConfigs returns per-server kernel/enclave config copies with the
// trace probes attached. With tracing off the configs pass through with
// nil probes, so the simulated machines are byte-identical either way.
func obsConfigs(kcfg simkern.Config, gcfg ghost.Config, o *obs.Obs, server int) (simkern.Config, ghost.Config) {
	if tr := o.Tracer(); tr != nil {
		kcfg.Probe = tr.KernelProbe(server)
		gcfg.Probe = tr.GhostProbe(server)
	}
	return kcfg, gcfg
}

// RunStreamedServer drives one server's routed share — pulled lazily from
// next — through the streaming dataflow: a per-server task pool feeds the
// lazy-admission feeder, tasks carry their global invocation id (Idx+1),
// and every completion is pushed into sink in completion order. Both the
// fixed fleet (share slice) and the autoscale layer (routing channel) wrap
// this one runner, so their per-server simulations are the same
// computation by construction. fm, when non-nil, interposes the server's
// fault machine on the policy, the sink, and the task build (crash
// kills, timeouts, retries — DESIGN.md §14). stats, when non-nil,
// receives the server enclave's delegation counters (fired vs elided
// agent ticks) after the run drains.
func RunStreamedServer(kcfg simkern.Config, policy ghost.Policy, gcfg ghost.Config,
	window time.Duration, fm *faults.Machine, next func() (Routed, bool), sink metrics.Sink, stats *ghost.Stats) (*simkern.Kernel, error) {
	pool := workload.NewTaskPool()
	src := func() (*simkern.Task, bool) {
		r, ok := next()
		if !ok {
			return nil, false
		}
		t := r.applyColdStart(pool.Get(r.Inv, simkern.TaskID(r.Idx+1)))
		if fm != nil {
			fm.Note(t, r.Inv.Duration, r.Inv.TimeoutMS)
		}
		return t, true
	}
	if fm != nil {
		var err error
		if policy, err = fm.WrapPolicy(policy); err != nil {
			return nil, err
		}
		sink = fm.WrapSink(sink)
		fm.SetRecycle(func(t *simkern.Task) { pool.Put(t) })
	}
	return simrun.ExecStream(kcfg, policy, gcfg, src, simrun.StreamConfig{
		Window:  window,
		Sink:    sink,
		Recycle: func(t *simkern.Task) { pool.Put(t) },
		Stats:   stats,
	})
}

// runStreamed is RunStreamedServer over a materialized share with an exact
// Set sink. Records arrive in completion order and are re-sorted by global
// invocation id, which is exactly the order metrics.Collect reports for
// the materialized path.
func runStreamed(s int, cfg Config, kcfg simkern.Config, gcfg ghost.Config,
	policy ghost.Policy, fm *faults.Machine, share []Routed, stats *ghost.Stats) (*simkern.Kernel, metrics.Set, error) {
	i := 0
	next := func() (Routed, bool) {
		if i >= len(share) {
			return Routed{}, false
		}
		r := share[i]
		i++
		return r, true
	}
	var set metrics.Set
	k, err := RunStreamedServer(kcfg, policy, gcfg, cfg.Window, fm, next, cfg.Obs.WrapSink(s, &set), stats)
	if err != nil {
		return nil, metrics.Set{}, err
	}
	sort.Slice(set.Records, func(a, b int) bool { return set.Records[a].ID < set.Records[b].ID })
	return k, set, nil
}
