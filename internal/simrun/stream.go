// Streaming run protocol: instead of seeding every task before the clock
// starts and holding every finished task for an end-of-run Collect,
// ExecStream admits tasks lazily on an Incremental machine — the same
// runner every fleet server uses — advancing the clock one watermark at a
// time, and a retirer pushes each finished task's record into a
// metrics.Sink, optionally recycling the struct. Peak memory becomes
// O(active tasks + one window of arrivals) instead of O(total
// invocations).
//
// Determinism: tasks are admitted through Kernel.AdmitTask, whose
// arrivals order before any same-instant run-time event (simkern's admit
// class) — exactly the tie-break a fully pre-seeded run produces — and
// the clock only advances to a watermark once an arrival strictly beyond
// it has been admitted. A streamed run is therefore observationally
// identical to the materialized run of the same workload;
// TestGoldenDigests proves it per scheduler.

package simrun

import (
	"errors"
	"fmt"
	"iter"
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/workload"
)

// TaskSource yields the next task to admit, in non-decreasing arrival
// order, or ok=false when the workload is exhausted.
type TaskSource func() (t *simkern.Task, ok bool)

// DefaultWindow is the default watermark spacing of every lazy-admission
// run: the clock advances in steps of this size, so the event heap holds
// at most about one window of arrivals ahead of the clock. Arrivals are
// minute-structured (evenly spaced within each trace minute), so half a
// minute keeps the heap a small constant factor of the per-minute arrival
// volume while watermark steps stay rare.
const DefaultWindow = 30 * time.Second

// StreamConfig tunes ExecStream.
type StreamConfig struct {
	// Window is the watermark spacing; zero means DefaultWindow.
	Window time.Duration
	// Sink receives one record per retired function task, in completion
	// order. Required.
	Sink metrics.Sink
	// Recycle, when non-nil, is handed each retired task after its record
	// is sinked — the hook that returns structs to a workload.TaskPool.
	// Leave nil to let finished tasks be garbage collected.
	Recycle func(*simkern.Task)
	// Stats, when non-nil, receives a snapshot of the enclave's delegation
	// stats after the run drains — the fired vs elided agent-tick counters
	// the long-horizon experiments report.
	Stats *ghost.Stats
}

// ExecStream is ExecStats's streaming sibling: an Incremental machine
// (task retention disabled, policy attached through a delegation enclave
// wrapped with the retirer) admits each task from src after running the
// clock to every watermark k·Window strictly below its arrival, then
// drains once the source is exhausted. The returned kernel carries only
// scalar observables (makespan, per-core counters); per-task results live
// in cfg.Sink.
//
// Precondition: the policy must not use Env.AbortTask — unless it retires
// every aborted task's Failed record into the sink itself. Aborted tasks
// emit no TASK_DEAD, so the retirer would never sink their record — the
// materialized path's Collect does report them, and the two dataflows
// would silently diverge. The Firecracker fleet (the one aborting caller)
// discharges the obligation in streaming mode by pushing the refused
// launch's Failed record directly (firecracker.Fleet.Stream).
func ExecStream(kcfg simkern.Config, policy ghost.Policy, gcfg ghost.Config, src TaskSource, cfg StreamConfig) (*simkern.Kernel, error) {
	if cfg.Sink == nil {
		return nil, errors.New("simrun: ExecStream needs a Sink")
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("simrun: negative watermark window %v", cfg.Window)
	}
	if cfg.Window == 0 {
		cfg.Window = DefaultWindow
	}
	inc, err := NewIncremental(kcfg, policy, gcfg, cfg.Sink, cfg.Recycle)
	if err != nil {
		return nil, err
	}
	nextMark, lastArr := cfg.Window, time.Duration(0)
	for {
		t, ok := src()
		if !ok {
			break
		}
		if t == nil {
			return nil, errors.New("simrun: TaskSource yielded a nil task")
		}
		if t.Arrival < lastArr {
			return nil, fmt.Errorf("simrun: TaskSource out of order: %v after %v", t.Arrival, lastArr)
		}
		lastArr = t.Arrival
		for ; t.Arrival > nextMark; nextMark += cfg.Window {
			if err := inc.RunTo(nextMark); err != nil {
				return nil, err
			}
		}
		if err := inc.Admit(t); err != nil {
			return nil, err
		}
	}
	if err := inc.Drain(); err != nil {
		return nil, err
	}
	if cfg.Stats != nil {
		*cfg.Stats = inc.Stats()
	}
	return inc.k, nil
}

// retirer wraps the scheduling policy: after the policy has consumed a
// TASK_DEAD message (and with it dropped its own references), the finished
// task is measured into the sink and optionally recycled. Only
// function-like work is recorded, matching metrics.Collect. The enclave
// finds the wrapped policy's Ticker through Unwrap.
type retirer struct {
	inner   ghost.Policy
	sink    metrics.Sink
	recycle func(*simkern.Task)
}

// Name implements ghost.Policy.
func (r *retirer) Name() string { return r.inner.Name() }

// Attach implements ghost.Policy.
func (r *retirer) Attach(env *ghost.Env) { r.inner.Attach(env) }

// Unwrap returns the wrapped policy.
func (r *retirer) Unwrap() ghost.Policy { return r.inner }

// OnMessage implements ghost.Policy.
func (r *retirer) OnMessage(m ghost.Message) {
	r.inner.OnMessage(m)
	if m.Type != ghost.MsgTaskDead {
		return
	}
	t := m.Task
	if t.Kind == simkern.KindFunction || t.Kind == simkern.KindVCPU {
		r.sink.Push(metrics.FromTask(t))
	}
	if r.recycle != nil {
		r.recycle(t)
	}
}

// PooledTasks adapts an invocation Source to a TaskSource that draws
// structs from pool and assigns sequential IDs 1..n in arrival order —
// the streaming analog of workload.Tasks. The returned stop releases the
// underlying pull iterator; call it once the run is over.
func PooledTasks(src workload.Source, pool *workload.TaskPool) (TaskSource, func()) {
	next, stop := iter.Pull(iter.Seq[workload.Invocation](src))
	var id simkern.TaskID
	return func() (*simkern.Task, bool) {
		inv, ok := next()
		if !ok {
			return nil, false
		}
		id++
		return pool.Get(inv, id), true
	}, stop
}

// ExecStreamPooled is the standard pooled wiring over ExecStream: tasks
// are drawn from a fresh pool with IDs 1..n in arrival order and recycled
// back into it on retirement. cfg.Recycle must be nil — the pool owns
// recycling here; drive ExecStream directly to instrument or replace the
// pool.
func ExecStreamPooled(kcfg simkern.Config, policy ghost.Policy, gcfg ghost.Config, src workload.Source, cfg StreamConfig) (*simkern.Kernel, error) {
	if cfg.Recycle != nil {
		return nil, errors.New("simrun: ExecStreamPooled owns Recycle; use ExecStream for custom pooling")
	}
	pool := workload.NewTaskPool()
	tasks, stop := PooledTasks(src, pool)
	defer stop()
	cfg.Recycle = func(t *simkern.Task) { pool.Put(t) }
	return ExecStream(kcfg, policy, gcfg, tasks, cfg)
}
