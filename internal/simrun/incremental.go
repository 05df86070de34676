// Incremental runs: one machine under external admission control, the
// only streaming per-server runner. The caller admits tasks, steps the
// clock to each watermark with RunTo — a watermark T may only be reached
// once every arrival ≤ T has been admitted — and finally Drain()s. The
// lockstep fleet executor (cluster.Executor) drives one per server from
// its shard workers; a single machine is a one-server fleet. A retirer
// pushes each finished task's record into a metrics.Sink and optionally
// recycles the struct, so peak memory is O(active tasks + one window of
// arrivals) instead of O(total invocations).
//
// Determinism: tasks are admitted through Kernel.AdmitTask, whose
// arrivals order before any same-instant run-time event (simkern's admit
// class) — exactly the tie-break a fully pre-seeded run produces — and
// the kernel's arrivals-pending flag, set until Drain, keeps every
// periodic pump alive between watermarks as pre-seeded arrivals would.
// An incremental run is therefore observationally identical to the
// materialized ExecStats run of the same workload; TestGoldenDigests
// proves it per scheduler (DESIGN.md §7, §11).

package simrun

import (
	"fmt"
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/simkern"
)

// DefaultWindow is the default watermark spacing of every lazy-admission
// run: the clock advances in steps of this size, so the event heap holds
// at most about one window of arrivals ahead of the clock. Arrivals are
// minute-structured (evenly spaced within each trace minute), so half a
// minute keeps the heap a small constant factor of the per-minute arrival
// volume while watermark steps stay rare.
const DefaultWindow = 30 * time.Second

// Incremental is one machine under external admission control. It is not
// safe for concurrent use; a sharded fleet gives each shard worker
// exclusive ownership of its machines.
type Incremental struct {
	k    *simkern.Kernel
	enc  *ghost.Enclave
	name string
}

// NewIncremental builds a task-discarding kernel with policy attached
// through a delegation enclave wrapped with the sink retirer (completed
// tasks are measured into sink, then handed to recycle when it is
// non-nil).
//
// Precondition: the policy must not use Env.AbortTask unless it retires
// every aborted task's Failed record into the sink itself. Aborted tasks
// emit no TASK_DEAD, so the retirer never sinks their record, while the
// materialized path's metrics.Collect does report them.
func NewIncremental(kcfg simkern.Config, policy ghost.Policy, gcfg ghost.Config, sink metrics.Sink, recycle func(*simkern.Task)) (*Incremental, error) {
	if sink == nil {
		return nil, fmt.Errorf("simrun: NewIncremental needs a Sink")
	}
	kcfg.DiscardTasks = true
	k, err := simkern.New(kcfg)
	if err != nil {
		return nil, err
	}
	enc, err := ghost.NewEnclave(k, &retirer{inner: policy, sink: sink, recycle: recycle}, gcfg)
	if err != nil {
		return nil, err
	}
	k.SetArrivalsPending(true)
	return &Incremental{k: k, enc: enc, name: policy.Name()}, nil
}

// Admit hands one task to the machine. Arrivals must be non-decreasing
// and at or after the last RunTo watermark.
func (inc *Incremental) Admit(t *simkern.Task) error { return inc.k.AdmitTask(t) }

// RunTo advances the machine's clock to the watermark: every event at or
// before it fires, and the clock lands exactly on it. The caller must
// have admitted every arrival ≤ watermark first — that is what makes the
// chunked run observationally identical to a fully pre-seeded one.
func (inc *Incremental) RunTo(watermark time.Duration) error {
	_, err := inc.k.Run(watermark)
	return err
}

// Drain declares the arrival stream over, runs the machine to
// quiescence, and verifies nothing is left outstanding.
func (inc *Incremental) Drain() error {
	inc.k.SetArrivalsPending(false)
	if _, err := inc.k.Run(0); err != nil {
		return err
	}
	if n := inc.k.Outstanding(); n != 0 {
		return fmt.Errorf("simrun: %d tasks unfinished under %s", n, inc.name)
	}
	return nil
}

// Makespan reports the machine's last completion time.
func (inc *Incremental) Makespan() time.Duration { return inc.k.Makespan() }

// Stats snapshots the enclave's delegation counters.
func (inc *Incremental) Stats() ghost.Stats { return inc.enc.Stats() }

// Events returns how many kernel events the machine has scheduled — the
// run-telemetry measure of simulation work done.
func (inc *Incremental) Events() uint64 { return inc.k.EventSeq() }

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
