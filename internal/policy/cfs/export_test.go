package cfs

import (
	"time"

	"github.com/faassched/faassched/internal/queue"
	"github.com/faassched/faassched/internal/simkern"
)

// Slice exposes the slice rule for n runnable tasks to tests.
func (p Params) Slice(n int) time.Duration { return p.withDefaults().slice(n) }

// Queued reports whether t's node is linked into a runqueue tree.
func Queued(t *simkern.Task) bool {
	d, ok := t.PolicyData.(*taskData)
	return ok && d.node.Linked()
}

// CheckRunqueues validates every runqueue tree in the group and that each
// queued task records the core whose tree holds it; it panics on
// violation.
func (e *Engine) CheckRunqueues() {
	for _, rq := range e.list {
		rq.tree.CheckInvariants()
		rq.tree.InOrder(func(n *queue.Node) bool {
			if data(n.Value.(*simkern.Task)).core != rq.id {
				panic("cfs: queued task records the wrong core")
			}
			return true
		})
	}
}
