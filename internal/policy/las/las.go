// Package las implements Least-Attained-Service scheduling: the runnable
// task that has consumed the least CPU so far always runs next. LAS is the
// oracle-free approximation of shortest-remaining-time-first — it needs no
// service-demand estimate, only the attained service the kernel already
// tracks — and is the policy family the SFS system (SC '22), the paper's
// closest related work (§VIII), approximates in user space for serverless
// functions.
//
// The implementation is centralized and preemptive with a guard quantum:
// a newly arriving task (attained service 0) preempts the runner with the
// most attained service, and an agent tick rotates runners that out-attain
// the queue head. The quantum bounds the preemption rate so short tasks
// fly through while long tasks converge to round-robin among themselves —
// the classic LAS behaviour that suits FaaS's short-mostly distribution.
package las

import (
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/queue"
	"github.com/faassched/faassched/internal/simkern"
)

// Defaults.
const (
	DefaultQuantum = 5 * time.Millisecond
	DefaultTick    = time.Millisecond
)

// Config configures LAS.
type Config struct {
	// Quantum bounds how far the runner may out-attain the queue's
	// least-attained task before being rotated; defaults to
	// DefaultQuantum.
	Quantum time.Duration
	// Tick is the agent scan period; defaults to DefaultTick.
	Tick time.Duration
}

// Policy is a standalone LAS ghost.Policy.
type Policy struct {
	cfg   Config
	env   *ghost.Env
	h     *queue.Heap[*simkern.Task]
	cores []simkern.CoreID
}

var (
	_ ghost.Policy = (*Policy)(nil)
	_ ghost.Ticker = (*Policy)(nil)
)

// New returns an LAS policy.
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
func (p *Policy) Name() string { return "las" }

// Attach implements ghost.Policy.
func (p *Policy) Attach(env *ghost.Env) {
	p.env = env
	p.h = queue.NewHeap[*simkern.Task](func(a, b *simkern.Task) bool {
		ca, cb := a.CPUConsumed(), b.CPUConsumed()
		if ca != cb {
			return ca < cb
		}
		return a.ID < b.ID
	})
	p.cores = make([]simkern.CoreID, env.Cores())
	for i := range p.cores {
		p.cores[i] = simkern.CoreID(i)
	}
}

// OnMessage implements ghost.Policy.
func (p *Policy) OnMessage(m ghost.Message) {
	switch m.Type {
	case ghost.MsgTaskNew:
		p.h.Push(m.Task)
		p.dispatch()
		p.preemptMostAttained()
	case ghost.MsgTaskDead:
		p.dispatch()
	}
}

// TickEvery implements ghost.Ticker.
func (p *Policy) TickEvery() time.Duration { return p.cfg.Tick }

// OnTick implements ghost.Ticker: rotate runners that have out-attained
// the queue head by more than the quantum.
func (p *Policy) OnTick() {
	head, ok := p.h.Peek()
	if !ok {
		return
	}
	headAttained := head.CPUConsumed()
	for _, c := range p.cores {
		t := p.env.RunningTask(c)
		if t == nil {
			continue
		}
		if p.env.TaskCPUConsumed(t) <= headAttained+p.cfg.Quantum {
			continue
		}
		got, err := p.env.CommitPreempt(c)
		if err != nil {
			continue
		}
		p.h.Push(got)
	}
	p.dispatch()
}

// NextDecision implements ghost.Ticker. OnTick acts only when the
// heap is non-empty and either a core sits idle (dispatch fills it now)
// or a runner has out-attained the frozen queue head by more than the
// quantum. A runner crosses that threshold no earlier than
// max(now, segment start) + (head attained + quantum − consumed): attained
// service grows at most at wall rate, so the estimate is conservative
// under interference (early ticks no-op and re-arm, per the
// Ticker contract) but never late. The head only changes through
// messages and commits, after which the enclave re-evaluates.
func (p *Policy) NextDecision(now time.Duration) (time.Duration, bool) {
	head, ok := p.h.Peek()
	if !ok {
		return 0, false
	}
	threshold := head.CPUConsumed() + p.cfg.Quantum
	var best time.Duration
	found := false
	for _, c := range p.cores {
		t := p.env.RunningTask(c)
		if t == nil {
			return now, true // idle core next to queued work: dispatch acts now
		}
		cross := now
		if consumed := p.env.TaskCPUConsumed(t); consumed < threshold {
			start := t.SegmentStart()
			if start < now {
				start = now
			}
			cross = start + (threshold - consumed)
		}
		if !found || cross < best {
			best, found = cross, true
		}
	}
	return best, found
}

func (p *Policy) dispatch() {
	for _, c := range p.cores {
		if p.h.Len() == 0 {
			return
		}
		if p.env.RunningTask(c) != nil {
			continue
		}
		t, _ := p.h.Peek()
		if err := p.env.CommitRun(c, t); err != nil {
			continue
		}
		p.h.Pop()
	}
}

// preemptMostAttained lets a fresh arrival displace the runner with the
// most attained service when no core is idle and the gap exceeds the
// quantum.
func (p *Policy) preemptMostAttained() {
	next, ok := p.h.Peek()
	if !ok {
		return
	}
	victim := simkern.NoCore
	var worst time.Duration
	for _, c := range p.cores {
		t := p.env.RunningTask(c)
		if t == nil {
			return // dispatch fills idle cores
		}
		if att := p.env.TaskCPUConsumed(t); victim == simkern.NoCore || att > worst {
			victim, worst = c, att
		}
	}
	if victim == simkern.NoCore || next.CPUConsumed()+p.cfg.Quantum >= worst {
		return
	}
	if got, err := p.env.CommitPreempt(victim); err == nil {
		p.h.Push(got)
		p.dispatch()
	}
}
