// Package cluster scales the single-enclave simulation out to a fleet: N
// independent servers, each its own simkern.Kernel plus ghost enclave
// running a per-server scheduling policy, fronted by a Router that places
// every invocation on one server at its arrival time.
//
// Routing is fully deterministic (the router sees only its own causal
// load model, never simulated server state), so the per-server
// simulations are independent. Every fixed fleet runs on one engine, the
// lockstep run (sharded.go): the router streams arrivals to shard workers
// that each own a contiguous server range and advance it to shared
// watermarks, and the shard results merge deterministically afterwards.
// Simulate is that run over a slice, with exact records. Wall-clock
// therefore scales with available host cores, not with fleet size. See
// DESIGN.md §5 and §11.
package cluster

import (
	"fmt"
	"runtime"
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
	// Window is the lockstep run's watermark spacing; zero means
	// simrun.DefaultWindow. It trades host overhead against buffered
	// handoffs only: results do not depend on it (DESIGN.md §7, §11).
	Window time.Duration
	// ColdStart configures the per-function warm-instance model (see
	// coldstart.go and DESIGN.md §10). The zero value disables it, and a
	// disabled model leaves routing and task demands byte-for-byte
	// unchanged.
	ColdStart ColdStartConfig
	// Shards partitions the fleet into contiguous server ranges, each owned
	// by one shard worker that advances its servers in lockstep with the
	// router; shard results merge deterministically after the run. Zero
	// picks min(Servers, 4×Workers). Results are bit-for-bit independent
	// of the shard count and of goroutine scheduling (DESIGN.md §11).
	Shards int
	// Workers only sets the default shard count (4×Workers). Zero means
	// GOMAXPROCS.
	Workers int
	// Obs enables the observability layer (counters, trace export,
	// progress). Nil disables it entirely; observation never alters
	// simulated behavior (DESIGN.md §13).
	Obs *obs.Obs
	// Faults is the deterministic fault plan (server crashes, straggler
	// windows, invocation timeouts, retry/backoff — DESIGN.md §14). The
	// zero value disables the layer and leaves every code path
	// byte-for-byte unchanged. Plans that kill require a ghost.TaskEvictor
	// policy (fifo, cfs, hybrid).
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

// shardPlan resolves the Shards/Workers knobs against the fleet size;
// Workers only sets the default shard count.
func shardPlan(servers, shards, workers int) ([][2]int, error) {
	if shards < 0 {
		return nil, fmt.Errorf("cluster: Shards must be >= 0, got %d", shards)
	}
	if workers < 0 {
		return nil, fmt.Errorf("cluster: Workers must be >= 0, got %d", workers)
	}
	if shards == 0 {
		if workers == 0 {
			workers = runtime.GOMAXPROCS(0)
		}
		shards = 4 * workers
	}
	return shardRanges(servers, shards), nil
}

// validate checks cfg and fills in its defaults.
func (cfg *Config) validate() error {
	if cfg.Servers < 1 {
		return fmt.Errorf("cluster: Servers must be >= 1, got %d", cfg.Servers)
	}
	if cfg.Policy == nil {
		return fmt.Errorf("cluster: nil Policy factory")
	}
	if cfg.Kernel.Cores < 1 {
		return fmt.Errorf("cluster: Kernel.Cores must be >= 1, got %d", cfg.Kernel.Cores)
	}
	if cfg.Window < 0 {
		return fmt.Errorf("cluster: negative look-ahead window %v", cfg.Window)
	}
	if cfg.Dispatch == "" {
		cfg.Dispatch = DispatchLeastLoaded
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg.Faults.Validate()
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

// Simulate routes invs across the fleet and simulates every server: the
// lockstep run of SimulateShardedExact over the slice.
func Simulate(cfg Config, invs []workload.Invocation) (*Result, error) {
	if len(invs) == 0 {
		return nil, fmt.Errorf("cluster: empty workload")
	}
	for i := 1; i < len(invs); i++ {
		if invs[i].Arrival < invs[i-1].Arrival {
			return nil, fmt.Errorf("cluster: invocations not sorted by arrival at index %d", i)
		}
	}
	return SimulateShardedExact(cfg, workload.SliceSource(invs))
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

// serverFeed is one server's admission plumbing, shared by both
// per-server runners (the lockstep shard worker and RunStreamedServer) so
// they build identical tasks: it turns each Routed arrival into a pooled
// task carrying its global invocation id (Idx+1) and demand surcharges,
// and, when the fault plan is on, interposes the server's fault machine
// between the retirer and the policy, on the record path, and on the task
// build (crash kills, timeouts, retries — DESIGN.md §14).
type serverFeed struct {
	pool *workload.TaskPool
	fm   *faults.Machine
}

// newServerFeed returns the feed for a server with fault machine fm (nil
// without a plan), plus policy and sink wrapped for the machine to be
// built over; the machine's retirer must recycle through feed.recycle.
func newServerFeed(fm *faults.Machine, policy ghost.Policy, sink metrics.Sink) (*serverFeed, ghost.Policy, metrics.Sink, error) {
	f := &serverFeed{pool: workload.NewTaskPool(), fm: fm}
	if fm != nil {
		var err error
		if policy, err = fm.WrapPolicy(policy); err != nil {
			return nil, nil, nil, err
		}
		sink = fm.WrapSink(sink)
		fm.SetRecycle(f.recycle)
	}
	return f, policy, sink, nil
}

// recycle returns a retired task to the feed's pool.
func (f *serverFeed) recycle(t *simkern.Task) { f.pool.Put(t) }

// task builds the server-side task for one routed arrival.
func (f *serverFeed) task(r Routed) *simkern.Task {
	t := r.applyColdStart(f.pool.Get(r.Inv, simkern.TaskID(r.Idx+1)))
	if f.fm != nil {
		f.fm.Note(t, r.Inv.Duration, r.Inv.TimeoutMS)
	}
	return t
}

// RunStreamedServer drives one server's routed share — pulled lazily from
// next — through the streaming dataflow: the lazy-admission feeder admits
// each arrival through a serverFeed, and every completion is pushed into
// sink in completion order. The autoscale layer runs every live server on
// it. fm, when non-nil, is the server's fault machine. stats, when
// non-nil, receives the server enclave's delegation counters (fired vs
// elided agent ticks) after the run drains.
func RunStreamedServer(kcfg simkern.Config, policy ghost.Policy, gcfg ghost.Config,
	window time.Duration, fm *faults.Machine, next func() (Routed, bool), sink metrics.Sink, stats *ghost.Stats) (*simkern.Kernel, error) {
	feed, policy, sink, err := newServerFeed(fm, policy, sink)
	if err != nil {
		return nil, err
	}
	src := func() (*simkern.Task, bool) {
		r, ok := next()
		if !ok {
			return nil, false
		}
		return feed.task(r), true
	}
	return simrun.ExecStream(kcfg, policy, gcfg, src, simrun.StreamConfig{
		Window:  window,
		Sink:    sink,
		Recycle: feed.recycle,
		Stats:   stats,
	})
}
