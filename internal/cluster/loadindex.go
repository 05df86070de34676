// Fleet load index: sub-linear dispatch over the causal lane model
// (DESIGN.md §12). Every dispatch policy used to scan all servers per
// arrival; at 10k servers that O(servers) scan makes the single-threaded
// router the replay bottleneck. The index keeps the same answers —
// bit-for-bit, including tie-breaks — in O(cores·log servers) per pick.
//
// Key insight: a server's Outstanding(s, now) = Σ(free−now | free>now)
// decays linearly in now with slope −busy(s), so a single ordering over
// all servers is not time-invariant. But *within the set of servers
// sharing one busy-lane count b*, Outstanding(s, now) = sumFree(s) − b·now
// is a constant shift of sumFree(s): the (sumFree, index) order never
// changes between events. So the index buckets servers by busy count
// (0..cores) and keeps one tournament tree per bucket keyed by
// (sumFree, server index); a pick reads cores+1 roots and compares their
// loads at now — lexicographic (load, index), identical to the linear
// first-minimum scan. Loads change only at assign instants and at booked
// lane-finish instants, so updates are event-driven: AssignDemand adjusts
// the chosen server's bucket directly, and lane expiries sit in a lazy
// min-heap drained by advance(now) before every indexed read. A second
// tree over (idleSince, index) answers join-idle-queue's
// longest-idle-first pick.
package cluster

import (
	"math"
	"time"
)

// treeAbsent marks an empty leaf. Real keys are lane-free sums or
// instants (non-negative, bounded by the simulated horizon), so MaxInt64
// is unreachable.
const treeAbsent = int64(math.MaxInt64)

// minTree is a fixed-shape tournament (segment) tree over int64 keys with
// server-index tie-break: min() returns the leaf with the lexicographically
// smallest (key, index). Leaves grow on demand by capacity doubling.
type minTree struct {
	n   int     // leaf capacity, power of two (0 until first set)
	key []int64 // [2n]; key[n+i] is leaf i, internal nodes hold the winner
	idx []int32
}

func (t *minTree) ensure(cap int) {
	if cap <= t.n {
		return
	}
	n := t.n
	if n == 0 {
		n = 1
	}
	for n < cap {
		n <<= 1
	}
	key := make([]int64, 2*n)
	idx := make([]int32, 2*n)
	for i := range key {
		key[i] = treeAbsent
	}
	for i := 0; i < t.n; i++ {
		key[n+i] = t.key[t.n+i]
		idx[n+i] = t.idx[t.n+i]
	}
	for i := n - 1; i >= 1; i-- {
		key[i], idx[i] = winner(key[2*i], idx[2*i], key[2*i+1], idx[2*i+1])
	}
	t.n, t.key, t.idx = n, key, idx
}

func winner(ak int64, ai int32, bk int64, bi int32) (int64, int32) {
	if bk < ak || (bk == ak && bi < ai) {
		return bk, bi
	}
	return ak, ai
}

func (t *minTree) update(i int, key int64) {
	t.ensure(i + 1)
	p := t.n + i
	t.key[p], t.idx[p] = key, int32(i)
	for p >>= 1; p >= 1; p >>= 1 {
		t.key[p], t.idx[p] = winner(t.key[2*p], t.idx[2*p], t.key[2*p+1], t.idx[2*p+1])
	}
}

func (t *minTree) remove(i int) {
	if i < t.n {
		t.update(i, treeAbsent)
	}
}

func (t *minTree) min() (int, int64, bool) {
	if t.n == 0 || t.key[1] == treeAbsent {
		return -1, 0, false
	}
	return int(t.idx[1]), t.key[1], true
}

// laneExpiry is one pending "booked lane frees at `at`" event. gen pins
// it to a specific booking: re-booking a lane before its free instant
// bumps the lane's generation, turning the old entry stale (skipped on
// pop) — necessary because back-to-back bookings can share identical
// free instants, so (server, lane, at) alone is ambiguous.
type laneExpiry struct {
	at     time.Duration
	server int32
	lane   int32
	gen    uint32
}

type expiryHeap []laneExpiry

func (h *expiryHeap) push(e laneExpiry) {
	*h = append(*h, e)
	s := *h
	for i := len(s) - 1; i > 0; {
		p := (i - 1) / 2
		if s[p].at <= s[i].at {
			break
		}
		s[p], s[i] = s[i], s[p]
		i = p
	}
}

func (h *expiryHeap) pop() laneExpiry {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	s = s[:last]
	for i := 0; ; {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < len(s) && s[l].at < s[m].at {
			m = l
		}
		if r < len(s) && s[r].at < s[m].at {
			m = r
		}
		if m == i {
			break
		}
		s[i], s[m] = s[m], s[i]
		i = m
	}
	return top
}

// loadIndex mirrors the FleetModel's per-server load as of `now`, the
// high-water mark of indexed reads and assigns. It assumes the
// non-decreasing decision times the Router's callers guarantee; calls with
// an earlier instant never rewind it (the linear fallbacks stay exact
// for any caller the index cannot serve).
type loadIndex struct {
	cores int
	now   time.Duration

	busy    []int32         // lanes with free > now
	sumFree []time.Duration // Σ lane free over busy lanes
	maxFree []time.Duration // max lane free ever booked == IdleSince when idle
	gen     [][]uint32      // per-lane booking generation
	elig    []bool          // server is in the dispatchable set

	eligN    int   // eligible servers
	eligBusy int64 // Σ busy over eligible servers (autoscaler signal)

	expiries expiryHeap
	byBusy   []*minTree // [busy count] -> eligible servers keyed (sumFree, index)
	idle     *minTree   // eligible servers with busy == 0, keyed (IdleSince, index)
}

// buildLoadIndex materializes an index over an existing lane model as of
// `now`. The lane state fully determines the index — busy lanes are those
// freeing after now, sumFree is their sum, maxFree the running maximum
// (lanes only extend, so the current max is the max ever booked) — so the
// build is exact no matter how much routing preceded it. FleetModel
// builds lazily on the first indexed read: fleets whose dispatch policy
// and autoscaler never consult the index skip its per-booking maintenance
// entirely.
func buildLoadIndex(laneFree [][]time.Duration, elig []bool, cores int, now time.Duration) *loadIndex {
	ix := &loadIndex{
		cores:  cores,
		now:    now,
		byBusy: make([]*minTree, cores+1),
		idle:   &minTree{},
	}
	for b := range ix.byBusy {
		ix.byBusy[b] = &minTree{}
	}
	for s, lanes := range laneFree {
		busy, sumFree, maxFree := int32(0), time.Duration(0), time.Duration(0)
		gen := make([]uint32, cores)
		for l, free := range lanes {
			if free > maxFree {
				maxFree = free
			}
			if free > now {
				busy++
				sumFree += free
				gen[l] = 1
				ix.expiries.push(laneExpiry{at: free, server: int32(s), lane: int32(l), gen: 1})
			}
		}
		ix.busy = append(ix.busy, busy)
		ix.sumFree = append(ix.sumFree, sumFree)
		ix.maxFree = append(ix.maxFree, maxFree)
		ix.gen = append(ix.gen, gen)
		ix.elig = append(ix.elig, false)
		if elig[s] {
			ix.setEligible(s, true)
		}
	}
	return ix
}

// addServer appends one server whose lanes all free at readyAt,
// ineligible until setEligible opts it in — NewFleetModel marks its fixed
// starting fleet eligible; the autoscaler activates launches itself.
func (ix *loadIndex) addServer(readyAt time.Duration) {
	s := len(ix.busy)
	ix.busy = append(ix.busy, 0)
	ix.sumFree = append(ix.sumFree, 0)
	ix.maxFree = append(ix.maxFree, readyAt)
	ix.gen = append(ix.gen, make([]uint32, ix.cores))
	ix.elig = append(ix.elig, false)
	if readyAt > ix.now {
		// Spinning up: every lane is "busy" until readyAt.
		ix.busy[s] = int32(ix.cores)
		ix.sumFree[s] = time.Duration(ix.cores) * readyAt
		for l := 0; l < ix.cores; l++ {
			ix.gen[s][l] = 1
			ix.expiries.push(laneExpiry{at: readyAt, server: int32(s), lane: int32(l), gen: 1})
		}
	}
}

// setEligible adds or removes server s from the dispatchable set. The
// indexed fast path answers picks over exactly the eligible servers, so
// callers must keep this set equal to the candidate slice they pass to
// Pick (the Router's callers do; anyone else gets the
// linear fallback via the candidate-count check).
func (ix *loadIndex) setEligible(s int, on bool) {
	if ix.elig[s] == on {
		return
	}
	ix.elig[s] = on
	b := int(ix.busy[s])
	if on {
		ix.eligN++
		ix.eligBusy += int64(b)
		ix.byBusy[b].update(s, int64(ix.sumFree[s]))
		if b == 0 {
			ix.idle.update(s, int64(ix.maxFree[s]))
		}
	} else {
		ix.eligN--
		ix.eligBusy -= int64(b)
		ix.byBusy[b].remove(s)
		if b == 0 {
			ix.idle.remove(s)
		}
	}
}

// advance drains lane expiries up to and including t, moving servers
// whose lanes freed into lower busy buckets. It never rewinds.
func (ix *loadIndex) advance(t time.Duration) {
	if t < ix.now {
		return
	}
	ix.now = t
	for len(ix.expiries) > 0 && ix.expiries[0].at <= t {
		e := ix.expiries.pop()
		s := int(e.server)
		if ix.gen[s][e.lane] != e.gen {
			continue // lane re-booked since; a fresher entry supersedes this one
		}
		b := int(ix.busy[s])
		ix.busy[s] = int32(b - 1)
		ix.sumFree[s] -= e.at
		if ix.elig[s] {
			ix.eligBusy--
			ix.byBusy[b].remove(s)
			ix.byBusy[b-1].update(s, int64(ix.sumFree[s]))
			if b-1 == 0 {
				ix.idle.update(s, int64(ix.maxFree[s]))
			}
		}
	}
}

// assigned records a booking that moved server s's lane from oldFree to
// newFree with the decision made at `at`. Callers (AssignDemand) hold the
// lane-model invariant newFree >= oldFree.
func (ix *loadIndex) assigned(s, lane int, oldFree, newFree, at time.Duration) {
	ix.advance(at)
	wasBusy := oldFree > ix.now
	isBusy := newFree > ix.now
	oldB := int(ix.busy[s])
	switch {
	case wasBusy: // lanes only extend, so wasBusy implies isBusy
		ix.sumFree[s] += newFree - oldFree
	case isBusy:
		ix.busy[s]++
		ix.sumFree[s] += newFree
		if ix.elig[s] {
			ix.eligBusy++
		}
	}
	if newFree > ix.maxFree[s] {
		ix.maxFree[s] = newFree
	}
	ix.gen[s][lane]++
	if isBusy {
		ix.expiries.push(laneExpiry{at: newFree, server: int32(s), lane: int32(lane), gen: ix.gen[s][lane]})
	}
	if !ix.elig[s] {
		return
	}
	newB := int(ix.busy[s])
	switch {
	case newB != oldB:
		ix.byBusy[oldB].remove(s)
		ix.byBusy[newB].update(s, int64(ix.sumFree[s]))
		if oldB == 0 {
			ix.idle.remove(s)
		}
	case wasBusy:
		ix.byBusy[newB].update(s, int64(ix.sumFree[s]))
	default:
		// Zero-demand booking on an idle lane: load unchanged, but the
		// lane now frees at the decision instant, which moves IdleSince
		// when the whole server is idle.
		if newB == 0 {
			ix.idle.update(s, int64(ix.maxFree[s]))
		}
	}
}

// usable advances the index to now and reports whether it can answer a
// pick for this candidate slice: the Router's callers always pass exactly
// the eligible set (in ascending order), so a length match means the
// slices are the same set. Any other caller falls back to the linear
// scans, which are exact for arbitrary subsets.
func (ix *loadIndex) usable(nCandidates int, now time.Duration) bool {
	ix.advance(now)
	return nCandidates == ix.eligN && ix.eligN > 0
}

// leastLoaded returns the eligible server minimizing
// (Outstanding(s, now), s) — the same winner as the linear first-minimum
// scan. Within a bucket load is a constant shift of the tree key, so each
// root is that bucket's winner; across buckets the loads are compared at
// now.
func (ix *loadIndex) leastLoaded() (int, bool) {
	best, bestLoad, found := -1, int64(0), false
	for b, tr := range ix.byBusy {
		s, key, ok := tr.min()
		if !ok {
			continue
		}
		load := key - int64(b)*int64(ix.now)
		if !found || load < bestLoad || (load == bestLoad && s < best) {
			best, bestLoad, found = s, load, true
		}
	}
	return best, found
}

// longestIdle returns the eligible idle server minimizing (IdleSince, s),
// or ok=false when no eligible server is idle.
func (ix *loadIndex) longestIdle() (int, bool) {
	s, _, ok := ix.idle.min()
	return s, ok
}

// loadOf returns Outstanding(s, now) at the index's current instant in
// O(1), for callers that already advanced.
func (ix *loadIndex) loadOf(s int) time.Duration {
	return ix.sumFree[s] - time.Duration(ix.busy[s])*ix.now
}
