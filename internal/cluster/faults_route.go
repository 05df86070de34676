// Router-side fault handling for fixed fleets: the fault plan's crash
// transitions gate dispatch eligibility (a down server takes no new work
// and loses its warm pool), straggler windows surcharge routed demand
// (through the Router), and when the whole fleet is down work queues on
// the soonest-recovering server. Everything here runs on the single
// routing thread.

package cluster

import (
	"time"

	"github.com/faassched/faassched/internal/faults"
	"github.com/faassched/faassched/internal/obs"
)

// routeFaults supplies the fixed fleet's per-arrival candidate set: it
// advances the fault timeline to each arrival and keeps the candidate
// slice equal to the model's eligible set (the invariant the indexed
// dispatch fast path needs). With the plan disabled every server is
// always a candidate.
type routeFaults struct {
	fleet      *faults.Fleet // nil when the plan is disabled
	model      *FleetModel
	pools      *WarmPools
	tracer     *obs.Tracer
	candidates []int
	dirty      bool
	now        time.Duration
	onDownFn   func(int)
	onUpFn     func(int)
}

// newRouteFaults builds the adapter over the router's fleet and arms the
// router's straggler surcharge when the plan is enabled.
func newRouteFaults(cfg faults.Config, r *Router, tracer *obs.Tracer) *routeFaults {
	rf := &routeFaults{
		model:      r.model,
		pools:      r.pools,
		tracer:     tracer,
		candidates: make([]int, r.model.Servers()),
	}
	for s := range rf.candidates {
		rf.candidates[s] = s
	}
	if cfg.Enabled() {
		rf.fleet = faults.NewFleet(cfg, len(rf.candidates))
		r.stragglers = rf.fleet
		rf.onDownFn = rf.onDown
		rf.onUpFn = rf.onUp
	}
	return rf
}

func (rf *routeFaults) onDown(s int) {
	rf.model.SetEligible(s, false, rf.now)
	if rf.pools != nil {
		// The crash destroys every warm instance; the slot restarts cold.
		rf.pools.DropServer(s)
	}
	rf.tracer.FaultEvent("crash", s, rf.now)
	rf.dirty = true
}

func (rf *routeFaults) onUp(s int) {
	rf.model.SetEligible(s, true, rf.now)
	rf.tracer.FaultEvent("recover", s, rf.now)
	rf.dirty = true
}

// route applies every fault transition due by arrival and returns the
// eligible candidate set. When every server is down it returns the
// fallback instead: the soonest-recovering server (ties to the lowest
// index). The booking still happens there — the work queues and the
// in-kernel machine kills and retries it past recovery — so the causal
// load model keeps charging the queued demand. Allocation-free when
// nothing transitioned.
func (rf *routeFaults) route(arrival time.Duration) (candidates []int, fallback int) {
	if rf.fleet == nil {
		return rf.candidates, -1
	}
	rf.now = arrival
	rf.fleet.Advance(arrival, rf.onDownFn, rf.onUpFn)
	if rf.dirty {
		rf.candidates = rf.candidates[:0]
		for s := 0; s < rf.model.Servers(); s++ {
			if !rf.fleet.Down(s) {
				rf.candidates = append(rf.candidates, s)
			}
		}
		rf.dirty = false
	}
	if len(rf.candidates) == 0 {
		return nil, rf.fleet.SoonestUp()
	}
	return rf.candidates, -1
}

// stats returns the router-side fault counters (crash and straggler
// windows entered so far); zero with the plan disabled.
func (rf *routeFaults) stats() faults.Stats {
	if rf.fleet == nil {
		return faults.Stats{}
	}
	return rf.fleet.Stats()
}

// addFaultStats folds fault counters into an obs registry.
func addFaultStats(reg *obs.Registry, st faults.Stats) {
	reg.Counter(obs.CFaultCrashes).Add(st.Crashes)
	reg.Counter(obs.CFaultKills).Add(st.Kills)
	reg.Counter(obs.CFaultRetries).Add(st.Retries)
	reg.Counter(obs.CFaultGiveUps).Add(st.GiveUps)
	reg.Counter(obs.CFaultStragglers).Add(st.StragglerWindows)
}
