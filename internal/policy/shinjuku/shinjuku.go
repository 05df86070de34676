// Package shinjuku models the Shinjuku scheduler (NSDI '19) at the
// abstraction level of this simulator (§III-C): a truly centralized
// dispatcher with a global FCFS queue and aggressive millisecond-scale
// preemption. Unlike plain Round-Robin, preemption is also triggered
// immediately on arrival — the dedicated dispatcher thread's centralized
// view lets a queued task displace any runner that has exceeded its
// quantum without waiting for the next tick, which is what buys Shinjuku
// its tail-latency advantage.
package shinjuku

import (
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/queue"
	"github.com/faassched/faassched/internal/simkern"
)

// Defaults for the Shinjuku model.
const (
	DefaultQuantum = time.Millisecond
	DefaultTick    = time.Millisecond
)

// Config configures the policy.
type Config struct {
	// Quantum is the preemption interval; defaults to DefaultQuantum.
	Quantum time.Duration
	// Tick is the dispatcher scan period; defaults to DefaultTick.
	Tick time.Duration
}

// Policy is a standalone Shinjuku-style ghost.Policy.
type Policy struct {
	cfg   Config
	env   *ghost.Env
	q     queue.Deque[*simkern.Task]
	cores []simkern.CoreID
}

var (
	_ ghost.Policy = (*Policy)(nil)
	_ ghost.Ticker = (*Policy)(nil)
)

// New returns a Shinjuku-style policy.
func New(cfg Config) *Policy {
	if cfg.Quantum <= 0 {
		cfg.Quantum = DefaultQuantum
	}
	if cfg.Tick <= 0 {
		cfg.Tick = DefaultTick
	}
	return &Policy{cfg: cfg}
}

// Name implements ghost.Policy.
func (p *Policy) Name() string { return "shinjuku" }

// Attach implements ghost.Policy.
func (p *Policy) Attach(env *ghost.Env) {
	p.env = env
	p.cores = make([]simkern.CoreID, env.Cores())
	for i := range p.cores {
		p.cores[i] = simkern.CoreID(i)
	}
}

// OnMessage implements ghost.Policy.
func (p *Policy) OnMessage(m ghost.Message) {
	switch m.Type {
	case ghost.MsgTaskNew:
		p.q.PushBack(m.Task)
		p.dispatch()
		// Centralized dispatcher: an arrival may immediately displace an
		// over-quantum runner instead of waiting for the next tick.
		p.preemptOverQuantum(1)
	case ghost.MsgTaskDead:
		p.dispatch()
	}
}

// TickEvery implements ghost.Ticker.
func (p *Policy) TickEvery() time.Duration { return p.cfg.Tick }

// OnTick implements ghost.Ticker: rotate every over-quantum runner while
// work is queued.
func (p *Policy) OnTick() {
	p.preemptOverQuantum(len(p.cores))
}

// NextDecision implements ghost.Ticker. With nothing queued
// OnTick is a no-op; with queued work it acts as soon as a core is idle
// (now) or a runner's segment reaches the quantum — a pure wall-time
// horizon (segment start + quantum), exact like fifo+quantum's: segment
// starts only move through commits, after which the enclave re-evaluates.
func (p *Policy) NextDecision(now time.Duration) (time.Duration, bool) {
	if p.q.Len() == 0 {
		return 0, false
	}
	var best time.Duration
	found := false
	for _, c := range p.cores {
		t := p.env.RunningTask(c)
		if t == nil {
			return now, true // idle core next to queued work: dispatch acts now
		}
		h := t.SegmentStart() + p.cfg.Quantum
		if h < now {
			h = now
		}
		if !found || h < best {
			best, found = h, true
		}
	}
	return best, found
}

func (p *Policy) dispatch() {
	for _, c := range p.cores {
		if p.q.Len() == 0 {
			return
		}
		if p.env.RunningTask(c) != nil {
			continue
		}
		t, _ := p.q.Front()
		if err := p.env.CommitRun(c, t); err != nil {
			continue
		}
		p.q.PopFront()
	}
}

// preemptOverQuantum preempts up to limit runners whose current segment
// exceeded the quantum, provided queued work exists to take their place.
func (p *Policy) preemptOverQuantum(limit int) {
	now := p.env.Now()
	for _, c := range p.cores {
		if limit == 0 || p.q.Len() == 0 {
			return
		}
		t := p.env.RunningTask(c)
		if t == nil {
			continue
		}
		if now-t.SegmentStart() < p.cfg.Quantum {
			continue
		}
		got, err := p.env.CommitPreempt(c)
		if err != nil {
			continue
		}
		p.q.PushBack(got)
		limit--
	}
	p.dispatch()
}
