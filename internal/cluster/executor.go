// The lockstep executor: the one engine under every fleet, fixed (Simulate,
// SimulateShardedExact, SimulateShardedWindowed) and elastic
// (autoscale.Run). The caller owns the arrival loop and is the only
// producer: it opens servers, admits each routed arrival, advances the
// fleet to the next arrival (a watermark T is only broadcast once an
// arrival strictly beyond T proves every arrival ≤ T has been handed
// over), closes servers it stops routing to, and finally waits. Each
// shard worker goroutine owns its servers' machines outright: on an
// arrival it admits the task (simkern.AdmitTask), on a watermark it
// advances its live servers to T in server-index order, and on a close
// it drains that machine at once. Watermarks never depend on simulated
// state, so the outcome is bit-for-bit independent of the shard count and
// of how the shard goroutines were scheduled. See DESIGN.md §11.

package cluster

import (
	"cmp"
	"fmt"
	"runtime"
	"slices"
	"time"

	"github.com/faassched/faassched/internal/faults"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/obs"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/simrun"
)

// ExecConfig configures an Executor.
type ExecConfig struct {
	// Shards is the number of shard workers (goroutines). Must be >= 1.
	Shards int
	// Window is the watermark spacing; zero means simrun.DefaultWindow.
	// Results do not depend on it.
	Window time.Duration
	// Kernel and Ghost configure every server's machine and enclave.
	Kernel simkern.Config
	Ghost  ghost.Config
	// Obs attaches per-server trace probes and sink taps, and receives
	// the watermark tally plus the fleet's enclave, kernel-event and
	// fault-machine counters at Wait. Nil disables it.
	Obs *obs.Obs
}

// DefaultShards is the default shard count for a fleet of up to servers
// machines: 4×GOMAXPROCS, capped at the fleet size.
func DefaultShards(servers int) int {
	return max(1, min(servers, 4*runtime.GOMAXPROCS(0)))
}

// Machine is one server's handle in an Executor. Its outcome fields are
// written by the owning shard worker and may be read only after Wait.
type Machine struct {
	// Server is the fleet index: it fixes the trace probes and names the
	// server in errors.
	Server int
	shard  int

	// policy, sink and fm are handed over at Open and dropped once the
	// shard has built inc and feed over them; those are released when
	// the machine retires.
	policy ghost.Policy
	sink   metrics.Sink
	fm     *faults.Machine
	inc    *simrun.Incremental
	feed   *serverFeed

	// Invocations counts admitted arrivals.
	Invocations int
	// Makespan, Stats, Events and Faults are the machine's last completion
	// time, enclave delegation counters, scheduled kernel events and
	// fault-machine counters (zero without a fault machine).
	Makespan time.Duration
	Stats    ghost.Stats
	Events   uint64
	Faults   faults.Stats
}

type execOp uint8

const (
	opAdmit execOp = iota
	opMark
	opOpen
	opClose
)

// execMsg is one caller→shard handoff.
type execMsg struct {
	op   execOp
	m    *Machine
	r    Routed
	mark time.Duration
}

// execChanBuf bounds each shard's in-flight handoffs. Watermarks act as
// barriers, so the buffer only smooths bursts within one chunk.
const execChanBuf = 256

// Executor runs a fleet of machines over lockstep shard workers. Its
// methods must be called from one goroutine.
type Executor struct {
	cfg      ExecConfig
	shards   []*execShard
	done     chan struct{}
	machines []*Machine
	nextMark time.Duration
	admitted int64
	wmCount  *obs.Counter
	faulty   bool // some machine runs a fault machine
}

// execShard is one shard worker: its live machines in server-index order.
type execShard struct {
	x    *Executor
	ch   chan execMsg
	live []*Machine
	err  error
}

// NewExecutor validates cfg and starts its shard workers.
func NewExecutor(cfg ExecConfig) (*Executor, error) {
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("cluster: executor needs >= 1 shard, got %d", cfg.Shards)
	}
	if cfg.Window < 0 {
		return nil, fmt.Errorf("cluster: negative watermark window %v", cfg.Window)
	}
	if cfg.Window == 0 {
		cfg.Window = simrun.DefaultWindow
	}
	x := &Executor{cfg: cfg, done: make(chan struct{}), nextMark: cfg.Window}
	if reg := cfg.Obs.Registry(); reg != nil {
		x.wmCount = reg.Counter(obs.CWatermarks)
	}
	x.shards = make([]*execShard, cfg.Shards)
	for i := range x.shards {
		x.shards[i] = &execShard{x: x, ch: make(chan execMsg, execChanBuf)}
	}
	for _, w := range x.shards {
		go w.run()
	}
	return x, nil
}

// Shards returns the shard count.
func (x *Executor) Shards() int { return len(x.shards) }

// Open starts server on shard with policy, completion sink and fault
// machine (nil without a fault plan). The machine is built on the shard
// worker; policy and sink must not be touched by the caller afterwards.
func (x *Executor) Open(shard, server int, policy ghost.Policy, sink metrics.Sink, fm *faults.Machine) *Machine {
	m := &Machine{Server: server, shard: shard, policy: policy, sink: sink, fm: fm}
	x.machines = append(x.machines, m)
	x.faulty = x.faulty || fm != nil
	x.shards[shard].ch <- execMsg{op: opOpen, m: m}
	return m
}

// Admit hands one routed arrival to m. Every watermark below its arrival
// must already have been broadcast (Advance).
func (x *Executor) Admit(m *Machine, r Routed) {
	x.shards[m.shard].ch <- execMsg{op: opAdmit, m: m, r: r}
	x.admitted++
}

// Advance broadcasts every watermark strictly below arrival: only an
// arrival strictly beyond T proves every arrival ≤ T has been handed over.
func (x *Executor) Advance(arrival time.Duration) {
	for arrival > x.nextMark {
		for _, w := range x.shards {
			w.ch <- execMsg{op: opMark, mark: x.nextMark}
		}
		if x.wmCount != nil {
			x.wmCount.Inc()
		}
		x.cfg.Obs.Tracer().Watermark(x.nextMark, x.admitted)
		if pg := x.cfg.Obs.Progress(); pg != nil {
			pg.Watermark.Store(int64(x.nextMark))
		}
		x.nextMark += x.cfg.Window
	}
}

// Close ends m's arrival stream: its shard drains the machine at once,
// so a closed server stops ticking and retires right away.
func (x *Executor) Close(m *Machine) {
	x.shards[m.shard].ch <- execMsg{op: opClose, m: m}
}

// Wait ends the run: every shard drains its live machines in
// server-index order and exits. It returns the first shard error, and
// otherwise adds the fleet's enclave, kernel-event and fault-machine
// counters to the registry — exactly once, from the caller's goroutine.
func (x *Executor) Wait() error {
	for _, w := range x.shards {
		close(w.ch)
	}
	for range x.shards {
		<-x.done
	}
	for _, w := range x.shards {
		if w.err != nil {
			return w.err
		}
	}
	if reg := x.cfg.Obs.Registry(); reg != nil {
		var st ghost.Stats
		var fs faults.Stats
		var events uint64
		for _, m := range x.machines {
			st.Accumulate(m.Stats)
			events += m.Events
			fs.Accumulate(m.Faults)
		}
		reg.AddGhostStats(st)
		reg.Counter(obs.CKernEvents).Add(int64(events))
		if x.faulty {
			reg.Counter(obs.CFaultKills).Add(fs.Kills)
			reg.Counter(obs.CFaultRetries).Add(fs.Retries)
			reg.Counter(obs.CFaultGiveUps).Add(fs.GiveUps)
		}
	}
	return nil
}

// run consumes the shard's handoffs until the caller closes the channel,
// then drains every live machine. After a failure it keeps consuming (and
// discarding) messages so the caller never blocks on a dead shard.
func (w *execShard) run() {
	defer func() { w.x.done <- struct{}{} }()
	for msg := range w.ch {
		if w.err != nil {
			continue
		}
		switch msg.op {
		case opAdmit:
			w.fail(msg.m, msg.m.admit(msg.r))
		case opMark:
			for _, m := range w.live {
				if err := m.inc.RunTo(msg.mark); err != nil {
					w.fail(m, err)
					break
				}
			}
		case opOpen:
			w.fail(msg.m, w.open(msg.m))
		case opClose:
			if i, ok := w.find(msg.m.Server); ok {
				w.live = slices.Delete(w.live, i, i+1)
				w.fail(msg.m, msg.m.retire())
			}
		}
	}
	for _, m := range w.live {
		if w.err != nil {
			return
		}
		w.fail(m, m.retire())
	}
	w.live = nil
}

// find locates server in the live list (or where it would be inserted).
func (w *execShard) find(server int) (int, bool) {
	return slices.BinarySearchFunc(w.live, server, func(m *Machine, s int) int { return cmp.Compare(m.Server, s) })
}

func (w *execShard) fail(m *Machine, err error) {
	if err != nil && w.err == nil {
		w.err = fmt.Errorf("cluster: server %d: %w", m.Server, err)
	}
}

// open builds m's machine and inserts it into the live list in
// server-index order — the fixed iteration order that makes a
// shard-shared sink's push stream deterministic.
func (w *execShard) open(m *Machine) error {
	cfg := &w.x.cfg
	feed, policy, sink, err := newServerFeed(m.fm, m.policy, cfg.Obs.WrapSink(m.Server, m.sink))
	if err != nil {
		return err
	}
	kcfg, gcfg := obsConfigs(cfg.Kernel, cfg.Ghost, cfg.Obs, m.Server)
	if m.inc, err = simrun.NewIncremental(kcfg, policy, gcfg, sink, feed.recycle); err != nil {
		return err
	}
	m.feed, m.policy, m.sink, m.fm = feed, nil, nil, nil
	i, _ := w.find(m.Server)
	w.live = slices.Insert(w.live, i, m)
	return nil
}

// admit builds the task for one routed arrival and admits it.
func (m *Machine) admit(r Routed) error {
	if err := m.inc.Admit(m.feed.task(r)); err != nil {
		return err
	}
	m.Invocations++
	return nil
}

// retire drains m to quiescence, records its outcome and releases the
// machine.
func (m *Machine) retire() error {
	if err := m.inc.Drain(); err != nil {
		return err
	}
	m.Makespan, m.Stats, m.Events = m.inc.Makespan(), m.inc.Stats(), m.inc.Events()
	if fm := m.feed.fm; fm != nil {
		m.Faults = fm.Stats()
	}
	m.inc, m.feed = nil, nil
	return nil
}
