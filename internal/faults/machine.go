package faults

import (
	"fmt"
	"sort"
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/simkern"
)

// Machine is one server's in-kernel fault executor. It wraps the server's
// policy (between the dataflow's retirer and the real scheduler) and its
// record sink, and from there:
//
//   - kills every resident task at each scheduled crash instant (eviction
//     through ghost.TaskEvictor, then Env.AbortTask) and charges the CPU
//     they had consumed as Wasted — billed-but-discarded work;
//   - fails tasks delivered while the server is down without ever showing
//     them to the scheduler (fail-fast, no parking: a dead server cannot
//     queue work);
//   - aborts attempts that outlive their deadline via a per-attempt
//     timeout timer;
//   - re-admits killed attempts at now + backoff through the kernel's
//     admit path (ordinary arrival ordering), or emits a give-up Record
//     once the attempt budget is spent;
//   - annotates the final Record of every retried invocation with its
//     original arrival, attempt count, and accumulated waste.
//
// Crash sweeps and timeouts fire as fault-class timers, ordered after all
// same-instant normal events, so "completed exactly at the crash" resolves
// the same way on the flat and sharded dataflows (whose internal event
// sequence numbers differ). Retry arrivals are never µs-aligned (jitter,
// see Config.Backoff) so they cannot tie with workload arrivals either.
//
// A Machine is single-threaded, owned by its server's event loop.
type Machine struct {
	cfg      Config
	maxAtt   int
	server   int
	sched    *Schedule // nil in terminal mode
	terminal bool
	crashAt  time.Duration // terminal mode: down forever from here; -1 = never

	env     *ghost.Env
	evictor ghost.TaskEvictor
	sink    metrics.Sink // unwrapped sink; give-up records go here directly
	recycle func(*simkern.Task)

	st        map[simkern.TaskID]*attemptState
	free      []*attemptState
	order     []simkern.TaskID // scratch: sweep kill order
	residents int

	sweepArmed bool
	sweepID    simkern.TimerID
	sweepFn    func()

	stats Stats
}

// attemptState tracks one in-flight invocation across its attempts.
type attemptState struct {
	task        *simkern.Task
	label       string
	origArrival time.Duration
	base        time.Duration // pristine service demand (no cold start, no slowdown)
	memMB       int
	fibN        int
	timeout     time.Duration
	attempts    int
	wasted      time.Duration
	resident    bool // MsgTaskNew delivered, MsgTaskDead not yet
	timerArmed  bool
	timerID     simkern.TimerID
}

// NewMachine returns server's fault executor under cfg's windowed
// crash/straggler timeline (the fixed-fleet dataflows).
func NewMachine(cfg Config, server int) *Machine {
	m := newMachine(cfg, server)
	m.sched = NewSchedule(cfg, server)
	return m
}

// NewTerminalMachine returns a fault executor for autoscaled fleets,
// where a crash retires the server slot for good: the server is down
// forever from crashAt (pass a negative crashAt for "never crashes");
// every kill at or after it becomes a give-up, and retries that would
// land past it give up immediately. Stragglers are not modeled here —
// autoscale validation rejects straggler plans.
func NewTerminalMachine(cfg Config, server int, crashAt time.Duration) *Machine {
	m := newMachine(cfg, server)
	m.terminal = true
	m.crashAt = crashAt
	return m
}

func newMachine(cfg Config, server int) *Machine {
	cfg = cfg.withDefaults()
	m := &Machine{
		cfg:     cfg,
		maxAtt:  cfg.maxAttempts(),
		server:  server,
		crashAt: -1,
		st:      make(map[simkern.TaskID]*attemptState),
	}
	m.sweepFn = m.sweep
	return m
}

// WrapPolicy interposes the machine between the dataflow and policy.
// Plans that kill (crashes or timeouts) require a ghost.TaskEvictor on
// policy's Unwrap chain; straggler-only and instrument-only plans do not.
func (m *Machine) WrapPolicy(policy ghost.Policy) (ghost.Policy, error) {
	m.evictor, _ = ghost.As[ghost.TaskEvictor](policy)
	if m.cfg.Kills() && m.evictor == nil {
		return nil, fmt.Errorf("faults: policy %q cannot evict tasks (no ghost.TaskEvictor); crash/timeout plans need fifo, cfs, or hybrid", policy.Name())
	}
	return &faultPolicy{m: m, inner: policy}, nil
}

// WrapSink interposes the machine on the record path: final records of
// retried invocations get their original arrival, attempt count, and
// accumulated waste restored before reaching inner.
func (m *Machine) WrapSink(inner metrics.Sink) metrics.Sink {
	m.sink = inner
	return &faultSink{m: m, inner: inner}
}

// SetRecycle installs the task-pool return hook used when an invocation
// is given up on (retired without a TASK_DEAD, so the dataflow's own
// retirer never sees it).
func (m *Machine) SetRecycle(fn func(*simkern.Task)) { m.recycle = fn }

// Note registers a first attempt. Call it when the task is built, before
// admission: base is the pristine service demand (inv.Duration — without
// cold-start or straggler inflation), timeoutMS the invocation's own
// deadline override (0 = Config.Timeout).
func (m *Machine) Note(t *simkern.Task, base time.Duration, timeoutMS int) {
	st := m.newState()
	st.task = t
	st.label = t.Label
	st.origArrival = t.Arrival
	st.base = base
	st.memMB = t.MemMB
	st.fibN = t.FibN
	st.attempts = 1
	if timeoutMS > 0 {
		st.timeout = time.Duration(timeoutMS) * time.Millisecond
	} else {
		st.timeout = m.cfg.Timeout
	}
	m.st[t.ID] = st
}

// Stats returns the machine's fault counters (fold after the run).
func (m *Machine) Stats() Stats { return m.stats }

// SlowExtra is the straggler demand surcharge for work of pristine
// duration base starting at t (0 in terminal mode — autoscale does not
// model stragglers).
func (m *Machine) SlowExtra(t, base time.Duration) time.Duration {
	if m.sched == nil {
		return 0
	}
	return m.sched.SlowExtra(t, base)
}

func (m *Machine) newState() *attemptState {
	if n := len(m.free); n > 0 {
		st := m.free[n-1]
		m.free = m.free[:n-1]
		return st
	}
	return &attemptState{}
}

func (m *Machine) drop(id simkern.TaskID, st *attemptState) {
	delete(m.st, id)
	*st = attemptState{}
	m.free = append(m.free, st)
}

func (m *Machine) downAt(t time.Duration) bool {
	if m.terminal {
		return m.crashAt >= 0 && t >= m.crashAt
	}
	_, down := m.sched.DownAt(t)
	return down
}

// onMessage is the interposed delegation handler.
func (m *Machine) onMessage(inner ghost.Policy, msg ghost.Message) {
	switch msg.Type {
	case ghost.MsgTaskNew:
		st := m.st[msg.Task.ID]
		if st == nil {
			// Untracked work (housekeeping threads): pass through.
			inner.OnMessage(msg)
			return
		}
		now := m.env.Now()
		if m.downAt(now) {
			// Delivered into an outage: the scheduler never sees it.
			m.killUnseen(st, now)
			return
		}
		st.resident = true
		m.residents++
		m.armTimeout(st)
		m.armSweep(now)
		inner.OnMessage(msg)
	case ghost.MsgTaskDead:
		if st := m.st[msg.Task.ID]; st != nil && st.resident {
			st.resident = false
			m.residents--
			m.disarmTimeout(st)
			if m.residents == 0 {
				// Never leave a far-future fault timer armed on an idle
				// kernel: it would pin the sampling pump alive.
				m.disarmSweep()
			}
		}
		inner.OnMessage(msg)
	default:
		inner.OnMessage(msg)
	}
}

// armSweep schedules the next crash sweep while residents exist.
func (m *Machine) armSweep(now time.Duration) {
	if m.sweepArmed || m.residents == 0 {
		return
	}
	var at time.Duration
	if m.terminal {
		if m.crashAt < 0 || m.crashAt <= now {
			return
		}
		at = m.crashAt
	} else {
		if m.cfg.CrashMTBF <= 0 {
			return
		}
		next, ok := m.sched.NextCrash(now)
		if !ok {
			return
		}
		at = next
	}
	m.sweepID = m.env.SetFaultTimer(at, m.sweepFn)
	m.sweepArmed = true
}

func (m *Machine) disarmSweep() {
	if m.sweepArmed {
		m.env.CancelTimer(m.sweepID)
		m.sweepArmed = false
	}
}

// sweep is the crash instant: kill every resident task in ID order.
func (m *Machine) sweep() {
	m.sweepArmed = false
	now := m.env.Now()
	m.order = m.order[:0]
	for id, st := range m.st {
		if st.resident {
			m.order = append(m.order, id)
		}
	}
	sort.Slice(m.order, func(i, j int) bool { return m.order[i] < m.order[j] })
	for _, id := range m.order {
		if st := m.st[id]; st != nil && st.resident {
			m.killResident(st, now)
		}
	}
	// Aborts fire no TASK_DEAD, so tell the horizon pump to re-evaluate.
	m.env.InvalidateHorizon()
	m.armSweep(now)
}

func (m *Machine) armTimeout(st *attemptState) {
	if st.timeout <= 0 || m.evictor == nil {
		return
	}
	id := st.task.ID
	attempt := st.attempts
	st.timerID = m.env.SetFaultTimer(st.task.Arrival+st.timeout, func() { m.onTimeout(id, attempt) })
	st.timerArmed = true
}

func (m *Machine) disarmTimeout(st *attemptState) {
	if st.timerArmed {
		m.env.CancelTimer(st.timerID)
		st.timerArmed = false
	}
}

func (m *Machine) onTimeout(id simkern.TaskID, attempt int) {
	st := m.st[id]
	if st == nil || st.attempts != attempt || !st.resident {
		return // stale: the attempt already finished or was killed
	}
	st.timerArmed = false
	m.killResident(st, m.env.Now())
	m.env.InvalidateHorizon()
}

// killResident evicts, aborts, and retries a task the scheduler owns.
func (m *Machine) killResident(st *attemptState, now time.Duration) {
	t := st.task
	if s := t.State(); s != simkern.StateRunnable && s != simkern.StateRunning {
		return // completed this very instant; its TASK_DEAD is in flight
	}
	consumed := m.env.TaskCPUConsumed(t)
	if !m.evictor.EvictTask(t) {
		return // policy does not own it; leave alone
	}
	st.resident = false
	m.residents--
	m.disarmTimeout(st)
	if m.residents == 0 {
		m.disarmSweep()
	}
	if err := m.env.AbortTask(t); err != nil {
		return
	}
	st.wasted += consumed
	m.stats.Kills++
	m.retryOrGiveUp(st, now)
}

// killUnseen fails a task delivered during an outage: it is Runnable in
// the kernel but the scheduler never learned of it, so no eviction is
// needed.
func (m *Machine) killUnseen(st *attemptState, now time.Duration) {
	if err := m.env.AbortTask(st.task); err != nil {
		return
	}
	m.stats.Kills++
	m.retryOrGiveUp(st, now)
}

// retryOrGiveUp re-admits a killed attempt after backoff, or retires the
// invocation with a give-up record once the budget is spent. The aborted
// task is StateFailed here, so Recycle is legal; retries reuse the same
// Task struct and keep the same ID.
func (m *Machine) retryOrGiveUp(st *attemptState, now time.Duration) {
	t := st.task
	id := t.ID
	retry := st.attempts < m.maxAtt
	var retryAt time.Duration
	if retry {
		retryAt = now + m.cfg.Backoff(uint64(id), st.attempts)
		if m.terminal {
			if m.crashAt >= 0 && retryAt >= m.crashAt {
				retry = false // the slot is gone for good; retrying is futile
			}
		} else if until, down := m.sched.DownAt(retryAt); down {
			// Wait out the outage; the extra nanoseconds keep the retry
			// off the µs grid (see Config.Backoff).
			h := jitterHash(uint64(m.cfg.Seed), uint64(id), uint64(st.attempts)|1<<32)
			retryAt = until + time.Duration(h%999) + 1
		}
	}
	if !retry {
		rec := metrics.Record{
			ID:          uint64(id),
			Label:       st.label,
			Arrival:     st.origArrival,
			Finish:      now,
			Preemptions: t.Preemptions(),
			MemMB:       st.memMB,
			FibN:        st.fibN,
			Failed:      true,
			GiveUp:      true,
			Attempts:    st.attempts,
			Wasted:      st.wasted,
		}
		m.drop(id, st)
		if m.recycle != nil {
			m.recycle(t)
		}
		m.stats.GiveUps++
		m.sink.Push(rec)
		return
	}
	st.attempts++
	t.Recycle()
	t.ID = id
	t.Label = st.label
	t.Kind = simkern.KindFunction
	t.Arrival = retryAt
	t.Work = st.base + m.SlowExtra(retryAt, st.base)
	t.MemMB = st.memMB
	t.FibN = st.fibN
	m.stats.Retries++
	// retryAt > now always, so the admit cannot be rejected as stale.
	_ = m.env.AdmitTask(t)
}

// faultPolicy interposes the machine on the delegation path; the enclave
// finds the inner policy's Ticker through Unwrap.
type faultPolicy struct {
	m     *Machine
	inner ghost.Policy
}

// Name implements ghost.Policy.
func (p *faultPolicy) Name() string { return p.inner.Name() }

// Attach implements ghost.Policy.
func (p *faultPolicy) Attach(env *ghost.Env) {
	p.m.env = env
	p.inner.Attach(env)
}

// OnMessage implements ghost.Policy.
func (p *faultPolicy) OnMessage(msg ghost.Message) { p.m.onMessage(p.inner, msg) }

// Unwrap returns the wrapped policy.
func (p *faultPolicy) Unwrap() ghost.Policy { return p.inner }

// faultSink restores invocation-level truth on final records: a retried
// invocation's Record reports the original arrival (so response time
// includes every backoff wait), the attempt count, and the waste its
// killed attempts burned.
type faultSink struct {
	m     *Machine
	inner metrics.Sink
}

// Push implements metrics.Sink.
func (s *faultSink) Push(r metrics.Record) {
	if st, ok := s.m.st[simkern.TaskID(r.ID)]; ok {
		if st.attempts > 1 {
			r.Arrival = st.origArrival
			r.Attempts = st.attempts
			r.Wasted = st.wasted
		}
		s.m.drop(simkern.TaskID(r.ID), st)
	}
	s.inner.Push(r)
}
