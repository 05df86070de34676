package cluster

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/policy/cfs"
	"github.com/faassched/faassched/internal/pricing"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/simrun"
	"github.com/faassched/faassched/internal/trace"
	"github.com/faassched/faassched/internal/workload"
)

func TestShardRanges(t *testing.T) {
	for _, tc := range []struct {
		n, shards int
		want      [][2]int
	}{
		{5, 2, [][2]int{{0, 2}, {2, 5}}},
		{6, 3, [][2]int{{0, 2}, {2, 4}, {4, 6}}},
		{3, 7, [][2]int{{0, 1}, {1, 2}, {2, 3}}}, // shards capped at n
		{4, 1, [][2]int{{0, 4}}},
		{4, 0, [][2]int{{0, 4}}}, // clamped up to 1
	} {
		got := shardRanges(tc.n, tc.shards)
		if len(got) != len(tc.want) {
			t.Errorf("shardRanges(%d,%d) = %v, want %v", tc.n, tc.shards, got, tc.want)
			continue
		}
		for i := range tc.want {
			if got[i] != tc.want[i] {
				t.Errorf("shardRanges(%d,%d)[%d] = %v, want %v", tc.n, tc.shards, i, got[i], tc.want[i])
			}
		}
	}
	// Ranges must always tile [0, n) contiguously.
	for n := 1; n <= 17; n++ {
		for s := 1; s <= 2*n; s++ {
			lo := 0
			for _, r := range shardRanges(n, s) {
				if r[0] != lo || r[1] <= r[0] {
					t.Fatalf("shardRanges(%d,%d) not contiguous: %v", n, s, shardRanges(n, s))
				}
				lo = r[1]
			}
			if lo != n {
				t.Fatalf("shardRanges(%d,%d) does not cover [0,%d)", n, s, n)
			}
		}
	}
}

func TestShardPlanValidation(t *testing.T) {
	if _, err := shardPlan(4, -1, 0); err == nil {
		t.Error("negative shards accepted")
	}
	if _, err := shardPlan(4, 0, -1); err == nil {
		t.Error("negative workers accepted")
	}
	ranges, err := shardPlan(8, 0, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != 8 { // 4×workers, capped at servers
		t.Errorf("shardPlan(8,0,2) = %d ranges, want 8", len(ranges))
	}
	if ranges, err = shardPlan(12, 0, 2); err != nil || len(ranges) != 8 { // 4×workers
		t.Errorf("shardPlan(12,0,2) = %d ranges (err %v), want 8", len(ranges), err)
	}
	ranges, err = shardPlan(3, 16, 16)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranges) != 3 { // capped at servers
		t.Errorf("shardPlan(3,16,16) = %d ranges, want 3", len(ranges))
	}
}

// TestShardedExactMatchesFlat is the lockstep engine's determinism bar:
// for every dispatch policy, shard count, and worker bound, the lockstep
// run — through Simulate and through SimulateShardedExact — must
// reproduce the materialized reference fleet's records, routing, and
// per-server shape bit for bit.
func TestShardedExactMatchesFlat(t *testing.T) {
	invs := synthWorkload(300, time.Millisecond, 20*time.Millisecond)
	cfsFactory := func() ghost.Policy { return cfs.New(cfs.Params{}) }
	for _, d := range Dispatches() {
		for _, mk := range []struct {
			name    string
			factory func() ghost.Policy
		}{{"fifo", fifoFactory}, {"cfs", cfsFactory}} {
			flatCfg := testConfig(5, d)
			flatCfg.Policy = mk.factory
			flatCfg.Seed = 1
			want := materializedFleet(t, flatCfg, invs)
			flat, err := Simulate(flatCfg, invs)
			if err != nil {
				t.Fatal(err)
			}
			checkFleet(t, fmt.Sprintf("%s/%s/flat", d, mk.name), want, flat)
			for _, shards := range []int{1, 3, 7} {
				for _, workers := range []int{1, 3} {
					cfg := flatCfg
					cfg.Shards, cfg.Workers = shards, workers
					checkShardedExact(t, fmt.Sprintf("%s/%s/shards=%d/workers=%d", d, mk.name, shards, workers), want, cfg, invs)
				}
			}
		}
	}
	// Watermarks far shorter than the traffic's idle gaps: a server can
	// drain between two watermarks while its next arrival is still with
	// the router. Its agent tick, sampler and monitor must then stay on
	// the grid the materialized run keeps (the kernel's arrivals-pending
	// flag, DESIGN.md §7), or CFS re-phases its slice ticks.
	for _, seed := range []int64{1, 7} {
		invs := tracedWorkload(t, seed)
		flatCfg := Config{
			Servers:  3,
			Dispatch: DispatchLeastLoaded,
			Kernel:   simkern.DefaultConfig(4),
			Policy:   cfsFactory,
			Seed:     seed,
		}
		want := materializedFleet(t, flatCfg, invs)
		for _, window := range []time.Duration{time.Second, 2 * time.Second} {
			cfg := flatCfg
			cfg.Shards, cfg.Workers, cfg.Window = 1, 1, window
			name := fmt.Sprintf("traced/seed=%d/cfs/window=%v", seed, window)
			t.Run(name, func(t *testing.T) { checkShardedExact(t, name, want, cfg, invs) })
		}
	}
}

// tracedWorkload is the golden-shaped workload: one minute of the seeded
// synthetic Azure trace, sampled down to 400 invocations.
func tracedWorkload(t *testing.T, seed int64) []workload.Invocation {
	t.Helper()
	tcfg := trace.DefaultConfig()
	tcfg.Seed = seed
	tcfg.Minutes = 10
	tr, err := trace.Generate(tcfg)
	if err != nil {
		t.Fatal(err)
	}
	invs, err := workload.Builder{}.Build(tr, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return workload.Sample(invs, 400)
}

// materializedFleet is the reference the lockstep engine is checked
// against. It routes every invocation up front with the Router (all
// servers candidates), then replays each server's assigned share on the
// single-machine materialized runner — pre-seeded tasks with ID
// index+1, simrun.ExecStats, metrics.Collect — and merges the records
// by ID. No share ever meets the lockstep watermarks or task pools.
func materializedFleet(t *testing.T, cfg Config, invs []workload.Invocation) *Result {
	t.Helper()
	if err := cfg.validate(); err != nil {
		t.Fatal(err)
	}
	router, err := NewRouter(cfg.Servers, cfg.Kernel.Cores, cfg.Dispatch, cfg.Seed, cfg.ColdStart, nil)
	if err != nil {
		t.Fatal(err)
	}
	candidates := make([]int, cfg.Servers)
	for s := range candidates {
		candidates[s] = s
	}
	res := &Result{
		Dispatch:   cfg.Dispatch,
		Servers:    cfg.Servers,
		PerServer:  make([]ServerResult, cfg.Servers),
		Assignment: make([]int, len(invs)),
	}
	shares := make([][]*simkern.Task, cfg.Servers)
	for i, inv := range invs {
		r, s, _, err := router.Route(inv, i, candidates, -1)
		if err != nil {
			t.Fatal(err)
		}
		res.Assignment[i] = s
		shares[s] = append(shares[s], r.applyColdStart(workload.Task(inv, simkern.TaskID(i+1))))
	}
	policies := make([]ghost.Policy, cfg.Servers)
	for s := range policies {
		policies[s] = cfg.Policy()
	}
	for s, tasks := range shares {
		sr := &res.PerServer[s]
		sr.Server, sr.Invocations = s, len(tasks)
		if len(tasks) == 0 {
			continue
		}
		k, err := simrun.ExecStats(cfg.Kernel, policies[s], cfg.Ghost, simrun.AddTasks(tasks), &sr.Stats)
		if err != nil {
			t.Fatalf("reference server %d: %v", s, err)
		}
		sr.Set = metrics.Collect(k)
		sr.Makespan = k.Makespan()
		sr.Events = k.EventSeq()
		sr.Preemptions = sr.Set.TotalPreemptions()
		res.Set.Records = append(res.Set.Records, sr.Set.Records...)
		res.Preemptions += sr.Preemptions
		res.Stats.Accumulate(sr.Stats)
		res.Events += sr.Events
		res.Makespan = max(res.Makespan, sr.Makespan)
	}
	sort.Slice(res.Set.Records, func(i, j int) bool { return res.Set.Records[i].ID < res.Set.Records[j].ID })
	return res
}

// checkShardedExact runs invs lockstep-sharded under cfg and requires the
// result to match want.
func checkShardedExact(t *testing.T, name string, want *Result, cfg Config, invs []workload.Invocation) {
	t.Helper()
	got, err := SimulateShardedExact(cfg, workload.SliceSource(invs))
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	checkFleet(t, name, want, got)
}

// checkFleet requires records, routing and per-server shape to match bit
// for bit.
func checkFleet(t *testing.T, name string, want, got *Result) {
	t.Helper()
	if len(got.Set.Records) != len(want.Set.Records) {
		t.Fatalf("%s: %d records, reference has %d", name, len(got.Set.Records), len(want.Set.Records))
	}
	for i := range want.Set.Records {
		if got.Set.Records[i] != want.Set.Records[i] {
			t.Fatalf("%s: record %d differs:\ngot       %+v\nreference %+v",
				name, i, got.Set.Records[i], want.Set.Records[i])
		}
	}
	if got.Makespan != want.Makespan || got.Preemptions != want.Preemptions {
		t.Errorf("%s: aggregates differ (makespan %v/%v, preempt %d/%d)",
			name, got.Makespan, want.Makespan, got.Preemptions, want.Preemptions)
	}
	for i := range want.Assignment {
		if got.Assignment[i] != want.Assignment[i] {
			t.Fatalf("%s: invocation %d routed to server %d, reference routed to %d",
				name, i, got.Assignment[i], want.Assignment[i])
		}
	}
	for s := range want.PerServer {
		ws, gs := want.PerServer[s], got.PerServer[s]
		if gs.Invocations != ws.Invocations || gs.Makespan != ws.Makespan || gs.Preemptions != ws.Preemptions {
			t.Errorf("%s: server %d shape differs", name, s)
		}
	}
}

// TestShardedWindowedMatchesExact: the windowed replay's merged
// accumulator must agree with the exact record set bucketed by hand —
// same completions per window, same totals, same cost.
func TestShardedWindowedMatchesExact(t *testing.T) {
	invs := synthWorkload(400, time.Millisecond, 15*time.Millisecond)
	width := 50 * time.Millisecond
	tariff := pricing.Default()
	cfg := testConfig(4, DispatchLeastLoaded)
	cfg.Shards, cfg.Workers = 3, 2
	exact, err := SimulateShardedExact(cfg, workload.SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := SimulateShardedWindowed(cfg, workload.SliceSource(invs), tariff, width)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Invocations != len(invs) {
		t.Errorf("routed %d invocations, want %d", rep.Invocations, len(invs))
	}
	if rep.Makespan != exact.Makespan {
		t.Errorf("makespan %v != exact %v", rep.Makespan, exact.Makespan)
	}
	total := rep.Windowed.Total()
	if total.Completed() != len(exact.Set.Records) {
		t.Errorf("windowed total %d completions, exact %d", total.Completed(), len(exact.Set.Records))
	}
	perWindow := map[int]int{}
	for _, r := range exact.Set.Records {
		perWindow[int(r.Finish/width)]++
	}
	for w := 0; w < rep.Windowed.Windows(); w++ {
		if got, want := rep.Windowed.Window(w).Completed(), perWindow[w]; got != want {
			t.Errorf("window %d: %d completions, exact bucketing says %d", w, got, want)
		}
	}
	wantCost := exact.Set.Cost(tariff)
	if got := total.Cost(); got < wantCost*0.999999 || got > wantCost*1.000001 {
		t.Errorf("windowed cost %v, exact %v", got, wantCost)
	}
}

// TestShardedValidation covers the sharded engine's error paths.
func TestShardedValidation(t *testing.T) {
	cfg := testConfig(3, DispatchRoundRobin)
	if _, err := SimulateShardedExact(cfg, workload.SliceSource(nil)); err == nil {
		t.Error("empty workload accepted")
	}
	bad := cfg
	bad.Shards = -1
	if _, err := SimulateShardedExact(bad, workload.SliceSource(synthWorkload(4, time.Millisecond, time.Millisecond))); err == nil {
		t.Error("negative shards accepted")
	}
	bad = cfg
	bad.Servers = 0
	if _, err := SimulateShardedExact(bad, workload.SliceSource(synthWorkload(4, time.Millisecond, time.Millisecond))); err == nil {
		t.Error("zero servers accepted")
	}
	if _, err := SimulateShardedWindowed(cfg, workload.SliceSource(synthWorkload(4, time.Millisecond, time.Millisecond)), pricing.Default(), -time.Second); err == nil {
		t.Error("negative window width accepted")
	}
}

// TestShardedColdStartMatchesFlat: the cold-start model must survive the
// lockstep run unchanged — same cold-start flags on every record as the
// materialized reference, flat and sharded.
func TestShardedColdStartMatchesFlat(t *testing.T) {
	invs := synthWorkload(200, 2*time.Millisecond, 10*time.Millisecond)
	for i := range invs {
		invs[i].FuncID = 1 + i%7
	}
	cfg := testConfig(3, DispatchLeastLoaded)
	cfg.Seed = 1
	cfg.ColdStart = ColdStartConfig{Latency: 5 * time.Millisecond, KeepAlive: 30 * time.Millisecond, WarmFirst: true}
	want := materializedFleet(t, cfg, invs)
	if want.Set.ColdStarts() == 0 {
		t.Fatal("reference run has no cold starts; test is vacuous")
	}
	flat, err := Simulate(cfg, invs)
	if err != nil {
		t.Fatal(err)
	}
	checkFleet(t, "flat", want, flat)
	cfg.Shards, cfg.Workers = 3, 2
	checkShardedExact(t, "shards=3", want, cfg, invs)
}
