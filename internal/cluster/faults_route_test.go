package cluster

import (
	"testing"
	"time"

	"github.com/faassched/faassched/internal/faults"
	"github.com/faassched/faassched/internal/workload"
)

// TestRouteFaultsHotPathAllocFree pins the obs-disabled fault seam's
// allocation behavior on the per-arrival dispatch path: once the fault
// timeline is generated and the transition heap is at steady capacity,
// advancing the fleet and routing an arrival (pick, straggler surcharge,
// booking) must not allocate (the companion of bench_smoke.sh gate 3 —
// the fault layer must not leak allocations onto the routing thread the
// way the obs seams must not).
func TestRouteFaultsHotPathAllocFree(t *testing.T) {
	const servers, cores = 16, 4
	cfg := faults.Config{
		Seed:          3,
		CrashMTBF:     30 * time.Second,
		Downtime:      5 * time.Second,
		StragglerMTBF: 40 * time.Second,
	}
	router, err := NewRouter(servers, cores, DispatchLeastLoaded, 1, ColdStartConfig{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	rf := newRouteFaults(cfg, router, nil)
	if router.stragglers == nil {
		t.Fatal("enabled plan armed no straggler surcharge")
	}
	// Warm up past several transition cycles so every lazy structure —
	// per-server schedules, the transition heap, the candidate slice —
	// has reached steady capacity.
	now := 5 * time.Minute
	rf.route(now)
	inv := workload.Invocation{FuncID: 1, Arrival: now, Duration: 10 * time.Millisecond, MemMB: 128}
	allocs := testing.AllocsPerRun(1000, func() {
		cands, fallback := rf.route(now)
		if _, _, _, err := router.Route(inv, 0, cands, fallback); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("fault routing hot path allocates %.1f/op, want 0", allocs)
	}
}
