package cluster

import (
	"fmt"
	"sort"
	"time"

	"github.com/faassched/faassched/internal/faults"
	"github.com/faassched/faassched/internal/obs"
	"github.com/faassched/faassched/internal/workload"
)

// Router is the fleet front end: the per-arrival routing step every fleet
// mode shares — the fixed and sharded fleets (runSharded) and the elastic
// autoscaler. It owns the causal load model, the dispatcher and the warm
// pools, all updated single-threaded in arrival order, so every placement
// and cold/warm decision is fixed before any server simulates it. Callers
// own only the candidate set: which servers are up and routable now.
type Router struct {
	model    *FleetModel
	pools    *WarmPools // nil unless the cold-start model is enabled
	disp     Dispatcher
	dispatch Dispatch
	latency  time.Duration
	// stragglers charges the fault plan's slowdown windows; nil without a
	// plan (newRouteFaults arms it).
	stragglers *faults.Fleet
	// warmHits/coldMisses tally the warm-pool outcome per routed
	// invocation; nil unless both counting and the cold-start model are on.
	warmHits, coldMisses *obs.Counter
}

// NewRouter builds the front end for a fleet of servers (the autoscaler
// starts from zero and grows the model and pools as it launches): the
// seeded dispatch policy over a fresh load model, plus the warm pools —
// with warm-first dispatch when asked — when cs is enabled.
func NewRouter(servers, cores int, d Dispatch, seed int64, cs ColdStartConfig, reg *obs.Registry) (*Router, error) {
	model := NewFleetModel(servers, cores)
	disp, err := NewDispatcher(d, seed, model)
	if err != nil {
		return nil, err
	}
	r := &Router{model: model, disp: disp, dispatch: d, latency: cs.Latency}
	if cs.Enabled() {
		r.pools = NewWarmPools(cs, servers)
		if cs.WarmFirst {
			r.disp = WarmFirstDispatcher(r.disp, r.pools, model)
		}
		if reg != nil {
			r.warmHits = reg.Counter(obs.CColdWarmHits)
			r.coldMisses = reg.Counter(obs.CColdMisses)
		}
	}
	return r, nil
}

// Model returns the router's causal load model.
func (r *Router) Model() *FleetModel { return r.model }

// Pools returns the warm pools, or nil with the cold-start model off.
func (r *Router) Pools() *WarmPools { return r.pools }

// Route places the arrival with global index idx: dispatch picks among
// candidates (ascending server indices, kept equal to the model's
// eligible set), or, when no candidate is up, the caller's fallback
// server takes it (a negative fallback is an error). The pick is then
// charged its straggler surcharge and cold-start latency, booked into the
// load model and the warm pools, and tallied. Route returns the Routed
// task, its server, and the booked finish time.
func (r *Router) Route(inv workload.Invocation, idx int, candidates []int, fallback int) (Routed, int, time.Duration, error) {
	s := fallback
	if len(candidates) > 0 {
		s = r.disp.Pick(inv, candidates)
		if i := sort.SearchInts(candidates, s); i == len(candidates) || candidates[i] != s {
			return Routed{}, 0, 0, fmt.Errorf("cluster: dispatch %q picked non-candidate server %d", r.dispatch, s)
		}
	} else if s < 0 {
		return Routed{}, 0, 0, fmt.Errorf("cluster: no routable server at %v", inv.Arrival)
	}
	rt := Routed{Inv: inv, Idx: idx}
	if r.stragglers != nil {
		rt.Slow = r.stragglers.SlowExtra(s, inv.Arrival, inv.Duration)
	}
	if r.pools != nil && r.pools.IsCold(s, inv, inv.Arrival) {
		rt.ColdStart = r.latency
	}
	finish := r.model.AssignDemand(s, inv.Arrival, inv.Duration+rt.ColdStart+rt.Slow)
	if r.pools != nil {
		r.pools.Book(s, inv, inv.Arrival, finish, rt.ColdStart > 0)
		if rt.ColdStart > 0 {
			if r.coldMisses != nil {
				r.coldMisses.Inc()
			}
		} else if r.warmHits != nil {
			r.warmHits.Inc()
		}
	}
	return rt, s, finish, nil
}
