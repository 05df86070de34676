// Cold-start model: per-function instance state on every server. Real
// FaaS platforms keep a finished function's microVM warm for a keep-alive
// interval so a follow-up invocation of the same function skips the
// instance spin-up; the dominant real-world serverless cost effect is
// exactly this cold/warm split (SFS; Kaffes et al., "Practical Scheduling
// for Real-World Serverless Computing"). The model here lives at the
// dispatch layer, next to the FleetModel: it is causal bookkeeping the
// front-end can maintain from its own routing decisions, updated
// single-threaded in arrival order by the Router, so routing stays
// deterministic and the per-server simulations stay independent.
//
// An instance's lifecycle under the lane model: an invocation routed to a
// server either reuses an idle warm instance (warm hit, no penalty) or
// spins up a cold one, paying ColdStartConfig.Latency as extra service
// demand — init work burns CPU on the instance, which is what makes the
// OS scheduler and the start path interact. The instance is busy until
// the booked completion, then idles for KeepAlive before eviction. A
// per-server memory budget bounds how much warm state a server may
// retain; when registering a new instance would exceed it, idle
// instances are evicted earliest-expiry-first, and if the budget still
// cannot be met (everything else is busy) the new instance runs but is
// not retained.
package cluster

import (
	"math"
	"time"

	"github.com/faassched/faassched/internal/workload"
)

// DefaultColdStartLatency is the instance spin-up demand when the model
// is enabled without an explicit latency — a Firecracker-class microVM
// boot plus runtime init, in the few-hundred-ms band the literature
// reports.
const DefaultColdStartLatency = 250 * time.Millisecond

// DefaultKeepAlive is the idle TTL before a warm instance is evicted,
// matching the ballpark fixed keep-alive of the large public platforms.
const DefaultKeepAlive = 10 * time.Minute

// ColdStartConfig configures the per-function warm-instance model. The
// zero value disables it entirely (no pools, no penalties, byte-for-byte
// the pre-model behavior).
type ColdStartConfig struct {
	// Latency is the instance spin-up penalty added to an invocation's
	// service demand when no idle warm instance of its function exists on
	// the chosen server. Zero disables the whole model.
	Latency time.Duration
	// KeepAlive is how long an idle warm instance survives before
	// eviction. Zero or negative means instances never expire.
	KeepAlive time.Duration
	// PoolMemMB bounds each server's total tracked instance memory
	// (busy + idle). Zero or negative means unbounded.
	PoolMemMB int
	// WarmFirst makes the dispatcher prefer candidates holding an idle
	// warm instance for the invocation's function (least-loaded among
	// them), falling back to the configured Dispatch policy for cold
	// placement.
	WarmFirst bool
}

// Enabled reports whether the model is active.
func (c ColdStartConfig) Enabled() bool { return c.Latency > 0 }

// noExpiry stands in for "never evicted" so plain < comparisons work.
const noExpiry = time.Duration(math.MaxInt64)

// funcKey is the identity warm instances are shared under: the explicit
// FuncID when the workload assigns one, else the (FibN, MemMB) bucket.
type funcKey struct {
	funcID int
	fibN   int
	memMB  int
}

func keyOf(inv workload.Invocation) funcKey {
	if inv.FuncID != 0 {
		return funcKey{funcID: inv.FuncID}
	}
	return funcKey{fibN: inv.FibN, memMB: inv.MemMB}
}

// warmInstance is one tracked instance on one server. It is busy until
// freeAt (the booked completion under the lane model), then idle until
// expireAt. server and seq exist for the warm index: seq advances on
// every rebooking/eviction so pending index transitions for a previous
// life of the instance are recognizably stale.
type warmInstance struct {
	key      funcKey
	freeAt   time.Duration
	expireAt time.Duration
	memMB    int
	server   int32
	seq      uint32
}

// serverPool is one server's tracked instances, in registration order —
// a slice, not a map, so every scan (warm lookup, budget eviction) is
// deterministic by construction. Pools stay small: the memory budget or
// the keep-alive TTL bounds them, and even unbounded they cannot exceed
// the server's peak per-function concurrency times live functions.
type serverPool struct {
	insts []*warmInstance
	memMB int
}

// WarmPools is the fleet's warm-instance state, indexed by server. Like
// the FleetModel it is updated only by the single-threaded Router, in
// arrival order, so decision time never decreases.
type WarmPools struct {
	cfg   ColdStartConfig
	pools []*serverPool
	widx  *warmIndex // per-funcKey idle-warm bitmap; nil unless WarmFirst
}

// NewWarmPools returns empty pools for a fleet of the given size. Under
// warm-first dispatch the pools also maintain the warm index so picks
// walk only warm holders instead of every candidate.
func NewWarmPools(cfg ColdStartConfig, servers int) *WarmPools {
	w := &WarmPools{cfg: cfg, pools: make([]*serverPool, servers)}
	if cfg.Enabled() && cfg.WarmFirst {
		w.widx = newWarmIndex()
	}
	for s := range w.pools {
		w.pools[s] = &serverPool{}
	}
	return w
}

// sync advances the warm index to now before any read or mutation at now.
func (w *WarmPools) sync(now time.Duration) {
	if w.widx != nil {
		w.widx.advance(now)
	}
}

// Servers returns the number of tracked servers.
func (w *WarmPools) Servers() int { return len(w.pools) }

// AddServer grows the fleet by one server with an empty pool (a freshly
// spun-up server has no warm state), returning its index.
func (w *WarmPools) AddServer() int {
	w.pools = append(w.pools, &serverPool{})
	return len(w.pools) - 1
}

// DropServer destroys server s's warm pool: retiring a server tears down
// its instances, so a later re-launch into the same fleet slot starts
// cold. The slot itself stays valid.
func (w *WarmPools) DropServer(s int) {
	if w.widx != nil {
		for _, in := range w.pools[s].insts {
			w.widx.retire(in)
		}
	}
	w.pools[s] = &serverPool{}
}

// expireAt computes when an instance finishing at freeAt falls out of
// keep-alive.
func (w *WarmPools) expireAt(freeAt time.Duration) time.Duration {
	if w.cfg.KeepAlive <= 0 {
		return noExpiry
	}
	return freeAt + w.cfg.KeepAlive
}

// prune evicts instances whose keep-alive lapsed by now: idle since
// freeAt and now at or past expireAt. Busy instances never expire.
func (p *serverPool) prune(now time.Duration) {
	kept := p.insts[:0]
	for _, in := range p.insts {
		if in.freeAt <= now && in.expireAt <= now {
			// The warm index needs no retire here: both of the instance's
			// transitions are at or before now, so advance already applied
			// them and no pending event can reference it.
			p.memMB -= in.memMB
			continue
		}
		kept = append(kept, in)
	}
	for i := len(kept); i < len(p.insts); i++ {
		p.insts[i] = nil
	}
	p.insts = kept
}

// warmIdx returns the index of the idle warm instance to reuse for key at
// now, or -1. Among matches it picks the most recently freed (largest
// freeAt, first in registration order on ties): reusing the hottest
// instance leaves the rest idle longest, the standard keep-alive reuse
// order.
func (p *serverPool) warmIdx(key funcKey, now time.Duration) int {
	best := -1
	for i, in := range p.insts {
		if in.key != key || in.freeAt > now || in.expireAt <= now {
			continue
		}
		if best < 0 || in.freeAt > p.insts[best].freeAt {
			best = i
		}
	}
	return best
}

// HasWarm reports whether server s holds an idle, unexpired instance of
// inv's function at time now — a routing there would be a warm hit.
func (w *WarmPools) HasWarm(s int, inv workload.Invocation, now time.Duration) bool {
	w.sync(now)
	p := w.pools[s]
	p.prune(now)
	return p.warmIdx(keyOf(inv), now) >= 0
}

// IsCold reports whether routing inv to server s at time now pays the
// cold-start penalty.
func (w *WarmPools) IsCold(s int, inv workload.Invocation, now time.Duration) bool {
	return !w.HasWarm(s, inv, now)
}

// Book records the routing decision: inv runs on server s from now until
// the booked completion finish (which already includes the cold-start
// penalty when cold). A warm hit re-busies the reused instance; a cold
// start registers a new instance, evicting idle instances
// earliest-expiry-first (registration order on ties) if the memory
// budget requires it. If the budget still cannot be met — every other
// instance is busy — the invocation runs anyway but its instance is not
// retained (it expires the moment it frees).
func (w *WarmPools) Book(s int, inv workload.Invocation, now, finish time.Duration, cold bool) {
	w.sync(now)
	p := w.pools[s]
	p.prune(now)
	key := keyOf(inv)
	if !cold {
		i := p.warmIdx(key, now)
		if i < 0 {
			// Callers always Book with the IsCold answer from the same
			// instant, so a missing warm instance here is a programming
			// error; treat it as a cold start rather than corrupt state.
			cold = true
		} else {
			in := p.insts[i]
			if w.widx != nil {
				w.widx.retire(in)
			}
			in.freeAt = finish
			in.expireAt = w.expireAt(finish)
			if w.widx != nil {
				w.widx.track(in)
			}
			return
		}
	}
	in := &warmInstance{key: key, freeAt: finish, expireAt: w.expireAt(finish), memMB: inv.MemMB, server: int32(s)}
	if w.cfg.PoolMemMB > 0 {
		for p.memMB+in.memMB > w.cfg.PoolMemMB {
			evict := -1
			for i, cand := range p.insts {
				if cand.freeAt > now {
					continue // busy instances cannot be evicted
				}
				if evict < 0 || cand.expireAt < p.insts[evict].expireAt {
					evict = i
				}
			}
			if evict < 0 {
				in.expireAt = in.freeAt // run, but do not retain
				break
			}
			if w.widx != nil {
				w.widx.retire(p.insts[evict])
			}
			p.memMB -= p.insts[evict].memMB
			p.insts = append(p.insts[:evict], p.insts[evict+1:]...)
		}
	}
	p.insts = append(p.insts, in)
	p.memMB += in.memMB
	if w.widx != nil {
		w.widx.track(in)
	}
}

// WarmCount returns how many instances server s tracks at now (tests).
func (w *WarmPools) WarmCount(s int, now time.Duration) int {
	w.sync(now)
	p := w.pools[s]
	p.prune(now)
	return len(p.insts)
}

// PoolMemMB returns server s's tracked instance memory at now (tests).
func (w *WarmPools) PoolMemMB(s int, now time.Duration) int {
	w.sync(now)
	p := w.pools[s]
	p.prune(now)
	return p.memMB
}

// warmFirstDispatch prefers candidates holding an idle warm instance of
// the invocation's function — least-loaded among them, so warm traffic
// still spreads — and falls back to the wrapped policy for cold
// placement. It is locality-aware dispatch in the sense of Kaffes et
// al.: the placement rule, not the invocation, decides where warm state
// gets reused.
type warmFirstDispatch struct {
	inner Dispatcher
	pools *WarmPools
	model *FleetModel
}

func (d *warmFirstDispatch) Pick(inv workload.Invocation, candidates []int) int {
	if w := d.pools.widx; w != nil {
		if ix := d.model.index(inv.Arrival); ix.usable(len(candidates), inv.Arrival) {
			// Indexed path: walk only the servers holding idle warm state
			// for this function instead of probing every candidate, then
			// hand cold placement to the wrapped policy — which is itself
			// indexed, so warm-first adds no fleet scan on either branch.
			// Same winner, same RNG/cursor stream, as the linear scan below.
			w.advance(inv.Arrival)
			if s, ok := w.best(keyOf(inv), ix); ok {
				return s
			}
			return d.inner.Pick(inv, candidates)
		}
	}
	best, bestLoad := -1, time.Duration(0)
	for _, s := range candidates {
		if !d.pools.HasWarm(s, inv, inv.Arrival) {
			continue
		}
		load := d.model.Outstanding(s, inv.Arrival)
		if best < 0 || load < bestLoad {
			best, bestLoad = s, load
		}
	}
	if best >= 0 {
		return best
	}
	return d.inner.Pick(inv, candidates)
}

// WarmFirstDispatcher wraps inner so warm candidates win. The wrapped
// policy's internal state (round-robin cursor, RNG stream) advances only
// on cold placements; warm-first is never part of the digest-pinned
// Dispatches() enum.
func WarmFirstDispatcher(inner Dispatcher, pools *WarmPools, model *FleetModel) Dispatcher {
	return &warmFirstDispatch{inner: inner, pools: pools, model: model}
}
