// Package core implements the paper's primary contribution (§IV): a hybrid
// two-level scheduler that splits the enclave into two CPU core groups.
//
// The short-task group runs a centralized FIFO policy: tasks enter a global
// queue and run to completion — unless their consumed CPU time exceeds the
// preemption time limit, in which case they are preempted and spilled
// round-robin onto the long-task group, which runs per-core CFS.
//
// Two provider-side mechanisms keep utilization high (§IV-B):
//
//   - Dynamic time limits: the most recent 100 completed task durations are
//     kept in a sliding window, and the limit is a configurable percentile
//     of that window.
//   - CPU-group rightsizing: a monitor compares the windowed average
//     utilization of the two groups and migrates one core across when the
//     gap exceeds a threshold, using the paper's lock → preempt → migrate
//     tasks → switch policy → unlock protocol.
package core

import (
	"fmt"
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/policy/cfs"
	"github.com/faassched/faassched/internal/policy/fifo"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/stats"
)

// Defaults for the hybrid scheduler.
const (
	// DefaultStaticLimit is the paper's headline FIFO preemption limit:
	// 1,633 ms, the 90th percentile of its workload's durations (§II-E).
	DefaultStaticLimit = 1633 * time.Millisecond
	// DefaultWindowSize matches "we keep the most recent 100 function
	// durations" (§IV-B).
	DefaultWindowSize = 100
	// DefaultTick is the global agent's time-limit scan period.
	DefaultTick = time.Millisecond
	// DefaultMonitorEvery is the utilization monitor period.
	DefaultMonitorEvery = time.Second
	// DefaultMigrationDelay models the locking and task-shuffling cost of
	// moving a core between groups ("it adds additional locking and short
	// delays", §VI-C).
	DefaultMigrationDelay = 200 * time.Microsecond
	// DefaultRightsizeThreshold is the utilization gap that triggers a
	// core migration.
	DefaultRightsizeThreshold = 0.15
	// DefaultRightsizeCooldown spaces consecutive migrations.
	DefaultRightsizeCooldown = 2 * time.Second
	// minAdaptiveSamples gates the adaptive limit until the window has
	// seen enough completions; before that the static limit applies
	// (Fig 16: "at the beginning, the time limit is still set as 1,633 ms").
	minAdaptiveSamples = 10
)

// TimeLimitConfig selects between a static preemption limit and the
// sliding-window percentile adaptation of §IV-B.
type TimeLimitConfig struct {
	// Static is the fixed limit, and the bootstrap value in adaptive mode.
	// Zero defaults to DefaultStaticLimit.
	Static time.Duration
	// Percentile, when non-zero, enables adaptation: the limit becomes
	// this percentile (0 < p <= 1, e.g. 0.95) of the recent-durations
	// window.
	Percentile float64
	// WindowSize is the sliding window capacity; zero defaults to
	// DefaultWindowSize.
	WindowSize int
}

// RightsizeConfig controls CPU-group rightsizing.
type RightsizeConfig struct {
	// Enabled turns the mechanism on.
	Enabled bool
	// Threshold is the inter-group utilization gap (0..1) that triggers a
	// migration; zero defaults to DefaultRightsizeThreshold.
	Threshold float64
	// Cooldown spaces migrations; zero defaults to DefaultRightsizeCooldown.
	Cooldown time.Duration
	// MinCores is the minimum size of each group; zero defaults to 1.
	MinCores int
}

// Config configures the hybrid scheduler.
type Config struct {
	// FIFOCores is the initial number of cores in the short-task (FIFO)
	// group; the remaining enclave cores form the CFS group. The paper's
	// best split is half/half (Fig 11).
	FIFOCores int
	// TimeLimit is the FIFO→CFS preemption limit policy.
	TimeLimit TimeLimitConfig
	// CFS tunes the long-task group's per-core CFS.
	CFS cfs.Params
	// Tick is the global agent's scan period; zero defaults to DefaultTick.
	Tick time.Duration
	// MonitorEvery is the utilization/limit monitor period; zero defaults
	// to DefaultMonitorEvery.
	MonitorEvery time.Duration
	// MigrationDelay is the modeled cost of moving a core between groups;
	// zero defaults to DefaultMigrationDelay.
	MigrationDelay time.Duration
	// Rightsize controls dynamic core-group resizing.
	Rightsize RightsizeConfig
	// AuxToCFS routes microVM housekeeping threads (VMM boot, IO) directly
	// to the CFS group instead of through the FIFO queue, implementing the
	// paper's §VII-4 future-work idea ("the internal threads of the
	// microVM need to be scheduled according to different policies"): the
	// FIFO group's run-to-completion slots are reserved for latency- and
	// billing-critical function work.
	AuxToCFS bool
}

func (c Config) withDefaults() Config {
	if c.TimeLimit.Static == 0 {
		c.TimeLimit.Static = DefaultStaticLimit
	}
	if c.TimeLimit.WindowSize == 0 {
		c.TimeLimit.WindowSize = DefaultWindowSize
	}
	if c.Tick == 0 {
		c.Tick = DefaultTick
	}
	if c.MonitorEvery == 0 {
		c.MonitorEvery = DefaultMonitorEvery
	}
	if c.MigrationDelay == 0 {
		c.MigrationDelay = DefaultMigrationDelay
	}
	if c.Rightsize.Threshold == 0 {
		c.Rightsize.Threshold = DefaultRightsizeThreshold
	}
	if c.Rightsize.Cooldown == 0 {
		c.Rightsize.Cooldown = DefaultRightsizeCooldown
	}
	if c.Rightsize.MinCores == 0 {
		c.Rightsize.MinCores = 1
	}
	return c
}

// Validate checks cfg against the enclave size it will be attached to.
func (c Config) Validate(totalCores int) error {
	if c.FIFOCores < 1 {
		return fmt.Errorf("core: FIFOCores must be >= 1, got %d", c.FIFOCores)
	}
	if c.FIFOCores >= totalCores {
		return fmt.Errorf("core: FIFOCores %d leaves no CFS cores (enclave has %d)",
			c.FIFOCores, totalCores)
	}
	if p := c.TimeLimit.Percentile; p < 0 || p > 1 {
		return fmt.Errorf("core: TimeLimit.Percentile %v out of (0,1]", p)
	}
	if c.TimeLimit.Static < 0 {
		return fmt.Errorf("core: negative static time limit %v", c.TimeLimit.Static)
	}
	return nil
}

// group tags which engine currently owns a task.
type group int

const (
	groupFIFO group = iota + 1
	groupCFS
)

// Hybrid is the two-group scheduler. It implements ghost.Policy and
// ghost.Ticker.
type Hybrid struct {
	cfg Config
	env *ghost.Env

	fifoEng *fifo.Engine
	cfsEng  *cfs.Engine
	groups  map[simkern.TaskID]group

	limit   time.Duration
	window  *stats.Window
	rrSpill int // round-robin cursor over CFS cores for spills

	monitorOn     bool
	monitorFn     func() // persistent monitor callback (no per-period closure)
	lastMigration time.Duration
	migrating     bool

	spills int64 // tasks preempted FIFO→CFS

	limitSeries     *stats.Series
	fifoUtilSeries  *stats.Series
	cfsUtilSeries   *stats.Series
	fifoCountSeries *stats.Series
}

var (
	_ ghost.Policy      = (*Hybrid)(nil)
	_ ghost.Ticker      = (*Hybrid)(nil)
	_ ghost.TaskEvictor = (*Hybrid)(nil)
)

// New returns a hybrid scheduler. Call Config.Validate against the target
// enclave size first; Attach clamps silently otherwise.
func New(cfg Config) *Hybrid {
	cfg = cfg.withDefaults()
	return &Hybrid{
		cfg:             cfg,
		groups:          make(map[simkern.TaskID]group),
		limit:           cfg.TimeLimit.Static,
		window:          stats.NewWindow(cfg.TimeLimit.WindowSize),
		limitSeries:     stats.NewSeries("time-limit"),
		fifoUtilSeries:  stats.NewSeries("fifo-util"),
		cfsUtilSeries:   stats.NewSeries("cfs-util"),
		fifoCountSeries: stats.NewSeries("fifo-cores"),
	}
}

// Name implements ghost.Policy.
func (h *Hybrid) Name() string { return "hybrid" }

// Attach implements ghost.Policy: cores [0, FIFOCores) form the FIFO
// group, the rest the CFS group.
func (h *Hybrid) Attach(env *ghost.Env) {
	h.env = env
	total := env.Cores()
	nf := h.cfg.FIFOCores
	if nf < 1 {
		nf = 1
	}
	if nf >= total {
		nf = total - 1
	}
	fifoCores := make([]simkern.CoreID, 0, nf)
	for i := 0; i < nf; i++ {
		fifoCores = append(fifoCores, simkern.CoreID(i))
	}
	cfsCores := make([]simkern.CoreID, 0, total-nf)
	for i := nf; i < total; i++ {
		cfsCores = append(cfsCores, simkern.CoreID(i))
	}
	h.fifoEng = fifo.NewEngine(env, fifoCores, 0 /* run-to-completion */)
	h.cfsEng = cfs.NewEngine(env, cfsCores, h.cfg.CFS)
	h.monitorFn = func() {
		h.monitor()
		if h.env.Live() {
			h.scheduleMonitor()
		} else {
			h.monitorOn = false
		}
	}
}

// OnMessage implements ghost.Policy.
func (h *Hybrid) OnMessage(m ghost.Message) {
	switch m.Type {
	case ghost.MsgTaskNew:
		if h.cfg.AuxToCFS && isAuxThread(m.Task) {
			// §VII-4 extension: microVM housekeeping bypasses the FIFO
			// queue and lands on the long-task group directly.
			h.groups[m.Task.ID] = groupCFS
			h.cfsEng.Enqueue(m.Task)
			h.ensureMonitor()
			return
		}
		// Every function task starts in the short-task group (§IV-A:
		// "tasks are first directed to the global queue of the [FIFO]
		// group").
		h.groups[m.Task.ID] = groupFIFO
		h.fifoEng.Enqueue(m.Task)
		h.ensureMonitor()
	case ghost.MsgTaskDead:
		h.recordCompletion(m.Task)
		switch h.groups[m.Task.ID] {
		case groupCFS:
			h.cfsEng.TaskDead(m.Task, m.Core)
		default:
			h.fifoEng.TaskDead()
		}
		delete(h.groups, m.Task.ID)
	}
}

// EvictTask implements ghost.TaskEvictor: the owning engine dequeues or
// preempts t, and the group entry is dropped. The killed task does NOT
// feed the adaptive-limit window — recordCompletion sees real
// completions only, so fault-injected kills cannot skew the limit.
func (h *Hybrid) EvictTask(t *simkern.Task) bool {
	g, ok := h.groups[t.ID]
	if !ok {
		return false
	}
	var evicted bool
	switch g {
	case groupCFS:
		evicted = h.cfsEng.Evict(t)
	default:
		evicted = h.fifoEng.Evict(t)
	}
	if evicted {
		delete(h.groups, t.ID)
	}
	return evicted
}

// isAuxThread reports whether t is microVM housekeeping rather than
// function work.
func isAuxThread(t *simkern.Task) bool {
	return t.Kind == simkern.KindVMM || t.Kind == simkern.KindIO
}

// recordCompletion feeds the sliding window behind the adaptive limit.
// Only function-like work counts; microVM housekeeping threads would skew
// the duration distribution.
func (h *Hybrid) recordCompletion(t *simkern.Task) {
	if t.Kind != simkern.KindFunction && t.Kind != simkern.KindVCPU {
		return
	}
	h.window.Add(float64(t.CPUConsumed()) / float64(time.Millisecond))
	if p := h.cfg.TimeLimit.Percentile; p > 0 && h.window.Len() >= minAdaptiveSamples {
		if v, ok := h.window.Percentile(p); ok {
			h.limit = time.Duration(v * float64(time.Millisecond))
		}
	}
}

// TickEvery implements ghost.Ticker.
func (h *Hybrid) TickEvery() time.Duration { return h.cfg.Tick }

// OnTick implements ghost.Ticker: enforce the FIFO time limit, then let
// the CFS group's per-core agents run their slice checks.
func (h *Hybrid) OnTick() {
	h.enforceLimit()
	h.cfsEng.Tick()
}

// NextDecision implements ghost.Ticker: the earliest instant at
// which OnTick could act, composed from the CFS engine's slice-expiry
// horizon and the FIFO lane. Per FIFO core: a kernel-idle core next to a
// non-empty global queue dispatches at the very next boundary (Dispatch
// reads kernel state, so a completion whose TASK_DEAD is still in flight
// already frees the core — the enclave re-evaluates at the completion
// instant to catch exactly that); a FIFO-group runner crosses the time
// limit once it consumes limit - consumedNow more CPU, i.e. no earlier
// than max(now, segment start) + that remainder. Under host interference
// consumption is slower, so the bound is conservative (an early tick
// no-ops and re-arms); with the enclave owning its cores it is exact.
func (h *Hybrid) NextDecision(now time.Duration) (time.Duration, bool) {
	best, found := h.cfsEng.NextDecision(now)
	queued := h.fifoEng.QueueLen() > 0
	for _, c := range h.fifoEng.Cores() {
		t := h.env.RunningTask(c)
		if t == nil {
			if queued {
				return now, true
			}
			continue
		}
		if h.groups[t.ID] != groupFIFO {
			continue // migration leftover from another group; not ours to limit
		}
		cross := now
		if consumed := h.env.TaskCPUConsumed(t); consumed < h.limit {
			start := t.SegmentStart()
			if start < now {
				start = now
			}
			cross = start + (h.limit - consumed)
		}
		if !found || cross < best {
			best, found = cross, true
		}
	}
	return best, found
}

// enforceLimit preempts FIFO-group runners whose consumed CPU exceeds the
// current limit and spills them round-robin across the CFS cores.
func (h *Hybrid) enforceLimit() {
	for _, c := range h.fifoEng.Cores() {
		t := h.env.RunningTask(c)
		if t == nil || h.groups[t.ID] != groupFIFO {
			continue
		}
		if h.env.TaskCPUConsumed(t) < h.limit {
			continue
		}
		got, err := h.env.CommitPreempt(c)
		if err != nil {
			continue // completion in flight
		}
		h.spill(got)
	}
	h.fifoEng.Dispatch()
}

// spill hands an expired task to the CFS group, round-robin over its cores.
func (h *Hybrid) spill(t *simkern.Task) {
	cfsCores := h.cfsEng.Cores()
	if len(cfsCores) == 0 {
		// Should not happen (MinCores >= 1); requeue rather than lose it.
		h.groups[t.ID] = groupFIFO
		h.fifoEng.Enqueue(t)
		return
	}
	h.groups[t.ID] = groupCFS
	target := cfsCores[h.rrSpill%len(cfsCores)]
	h.rrSpill++
	h.spills++
	h.cfsEng.EnqueueOn(target, t)
}

// Spills returns how many tasks were preempted from the FIFO group into
// the CFS group.
func (h *Hybrid) Spills() int64 { return h.spills }

// CurrentLimit returns the preemption time limit in force.
func (h *Hybrid) CurrentLimit() time.Duration { return h.limit }

// FIFOCores returns the current FIFO group.
func (h *Hybrid) FIFOCores() []simkern.CoreID { return h.fifoEng.Cores() }

// CFSCores returns the current CFS group.
func (h *Hybrid) CFSCores() []simkern.CoreID { return h.cfsEng.Cores() }

// LimitSeries returns the recorded (time, limit-in-ms) monitor series.
func (h *Hybrid) LimitSeries() *stats.Series { return h.limitSeries }

// FIFOUtilSeries returns the FIFO group's average-utilization series.
func (h *Hybrid) FIFOUtilSeries() *stats.Series { return h.fifoUtilSeries }

// CFSUtilSeries returns the CFS group's average-utilization series.
func (h *Hybrid) CFSUtilSeries() *stats.Series { return h.cfsUtilSeries }

// FIFOCountSeries returns the recorded (time, #FIFO cores) series.
func (h *Hybrid) FIFOCountSeries() *stats.Series { return h.fifoCountSeries }

// ensureMonitor starts the periodic monitor loop on first arrival.
func (h *Hybrid) ensureMonitor() {
	if h.monitorOn {
		return
	}
	h.monitorOn = true
	h.scheduleMonitor()
}

func (h *Hybrid) scheduleMonitor() {
	h.env.SetTimer(h.env.Now()+h.cfg.MonitorEvery, h.monitorFn)
}

// monitor records the group-utilization, limit, and core-count series
// (Figs 14, 16, 17, 19) and drives rightsizing. It reads per-core
// utilization from the kernel's sampler — the stand-in for the paper's
// psutil daemon publishing through shared memory.
func (h *Hybrid) monitor() {
	now := h.env.Now()
	fifoUtil := h.groupUtil(h.fifoEng.Cores())
	cfsUtil := h.groupUtil(h.cfsEng.Cores())
	h.fifoUtilSeries.Append(now, fifoUtil)
	h.cfsUtilSeries.Append(now, cfsUtil)
	h.limitSeries.Append(now, float64(h.limit)/float64(time.Millisecond))
	h.fifoCountSeries.Append(now, float64(len(h.fifoEng.Cores())))

	if !h.cfg.Rightsize.Enabled || h.migrating {
		return
	}
	if now-h.lastMigration < h.cfg.Rightsize.Cooldown {
		return
	}
	gap := fifoUtil - cfsUtil
	if gap < 0 {
		gap = -gap
	}
	if gap < h.cfg.Rightsize.Threshold {
		return
	}
	// Move a core from the under-utilized group to the overloaded one.
	// (The paper's prose says "from the highly-utilized group to the
	// under-utilized group", but taking a core away from the busy group
	// would worsen the imbalance; Fig 19's behavior — FIFO cores grow
	// when FIFO is the busy group — matches this direction.)
	if fifoUtil > cfsUtil {
		h.migrateCFSToFIFO(now)
	} else {
		h.migrateFIFOToCFS(now)
	}
}

func (h *Hybrid) groupUtil(cores []simkern.CoreID) float64 {
	if len(cores) == 0 {
		return 0
	}
	sum := 0.0
	for _, c := range cores {
		sum += h.env.UtilLast(c)
	}
	return sum / float64(len(cores))
}

// migrateCFSToFIFO implements the paper's Fig 8 protocol: lock the core,
// preempt its runner, migrate its queue to the remaining CFS cores,
// switch the policy, unlock.
func (h *Hybrid) migrateCFSToFIFO(now time.Duration) {
	cfsCores := h.cfsEng.Cores()
	if len(cfsCores) <= h.cfg.Rightsize.MinCores {
		return
	}
	c := cfsCores[len(cfsCores)-1]
	// Lock + preempt + drain: RemoveCore returns the runner and queue.
	tasks := h.cfsEng.RemoveCore(c)
	// Redistribute to the remaining CFS cores, balancing queue sizes.
	for _, t := range tasks {
		h.cfsEng.Enqueue(t)
	}
	// Monitor timers bypass message dispatch, so the reshuffle above must
	// re-arm the elision pump explicitly.
	h.env.InvalidateHorizon()
	h.beginMigration(now, c, func() {
		h.fifoEng.AddCore(c) // dispatches queued FIFO work immediately
	})
}

// migrateFIFOToCFS moves one FIFO core to the CFS group. The runner, if
// any, is preempted and put back at the head of the global FIFO queue so
// it resumes on another FIFO core with its position preserved.
func (h *Hybrid) migrateFIFOToCFS(now time.Duration) {
	fifoCores := h.fifoEng.Cores()
	if len(fifoCores) <= h.cfg.Rightsize.MinCores {
		return
	}
	c := fifoCores[len(fifoCores)-1]
	h.fifoEng.RemoveCore(c)
	if t := h.env.RunningTask(c); t != nil && h.groups[t.ID] == groupFIFO {
		if got, err := h.env.CommitPreempt(c); err == nil {
			h.requeueFIFOFront(got)
		}
	}
	// Monitor timers bypass message dispatch, so the preempt/requeue above
	// must re-arm the elision pump explicitly.
	h.env.InvalidateHorizon()
	h.beginMigration(now, c, func() {
		h.cfsEng.AddCore(c)
		h.cfsEng.Tick() // let the new empty queue pull work immediately
	})
}

// requeueFIFOFront puts a displaced FIFO runner back at the queue head.
func (h *Hybrid) requeueFIFOFront(t *simkern.Task) {
	// fifo.Engine has no PushFront; emulate by re-enqueueing and letting
	// Dispatch place it first — the engine dispatches from the head, and
	// the displaced runner should precede queued work, so use the
	// dedicated hook below.
	h.fifoEng.EnqueueFront(t)
}

// beginMigration models the lock/unlock delay around a core migration.
func (h *Hybrid) beginMigration(now time.Duration, c simkern.CoreID, done func()) {
	h.migrating = true
	h.lastMigration = now
	h.env.NoteMigration()
	_ = c
	h.env.SetTimer(now+h.cfg.MigrationDelay, func() {
		h.migrating = false
		done()
		// The unlock callback moved a core between groups (and may have
		// dispatched onto it) from a policy timer: re-arm the elision pump.
		h.env.InvalidateHorizon()
	})
}
