package faassched

// Sharded execution must be invisible: the lockstep fleet (Shards /
// Workers on ClusterOptions) and the sharded windowed replay must
// reproduce the UNCHANGED committed golden digests — the same bytes the
// flat one-goroutine-per-server implementation pinned — at every shard
// count. If sharding ever perturbs a single event ordering, these digests
// catch it.

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
	"time"
)

// committedDigests loads testdata/golden_digests.json.
func committedDigests(t *testing.T) map[string]string {
	t.Helper()
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read %s: %v", goldenPath, err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

// TestShardedMergeMatchesFlat runs the fleet half of the golden matrix
// with sharding enabled — shard counts 1, 3, and 7 over the 3-server
// fleet with Workers 2 — and requires every digest to equal the committed
// flat digest bit for bit.
func TestShardedMergeMatchesFlat(t *testing.T) {
	t.Parallel()
	invs := goldenWorkload(t)
	want := committedDigests(t)
	check := func(key, name string, opts ClusterOptions) {
		t.Helper()
		cres, err := SimulateCluster(opts, invs)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := digestCluster(cres); got != want[key] {
			t.Errorf("%s: digest %.12s… != committed %.12s… (%s)", name, got, want[key], key)
		}
	}
	for _, shards := range []int{1, 3, 7} {
		for _, d := range Dispatches() {
			check("cluster/hybrid/"+string(d),
				fmt.Sprintf("hybrid/%s/shards=%d", d, shards),
				ClusterOptions{
					Servers: 3, CoresPerServer: 4, Dispatch: d, Scheduler: SchedulerHybrid,
					Seed: 1, Shards: shards, Workers: 2,
				})
		}
		check("cluster/cfs/least-loaded",
			fmt.Sprintf("cfs/least-loaded/shards=%d", shards),
			ClusterOptions{
				Servers: 3, CoresPerServer: 4, Dispatch: DispatchLeastLoaded, Scheduler: SchedulerCFS,
				Seed: 1, Shards: shards, Workers: 2,
			})
		// The fault seam threaded with an empty plan (Instrument: true —
		// machines and routing hooks live) must leave every sharded digest
		// untouched (DESIGN.md §14).
		for _, d := range Dispatches() {
			check("cluster/hybrid/"+string(d),
				fmt.Sprintf("instrumented/hybrid/%s/shards=%d", d, shards),
				ClusterOptions{
					Servers: 3, CoresPerServer: 4, Dispatch: d, Scheduler: SchedulerHybrid,
					Seed: 1, Faults: FaultOptions{Instrument: true}, Shards: shards, Workers: 2,
				})
		}
		check("cluster/cfs/least-loaded",
			fmt.Sprintf("instrumented/cfs/least-loaded/shards=%d", shards),
			ClusterOptions{
				Servers: 3, CoresPerServer: 4, Dispatch: DispatchLeastLoaded, Scheduler: SchedulerCFS,
				Seed: 1, Faults: FaultOptions{Instrument: true}, Shards: shards, Workers: 2,
			})
	}
}

// TestTenKServerShardDigests is the at-scale form of the digest claim:
// a 10,000-server fleet routed by the indexed dispatchers produces the
// same digest flat and at shards {1, 7}. The committed golden file pins
// the 3-server matrix; this pins that the load index stays exact at the
// fleet size it exists for, for both policies it serves (least-loaded
// and join-idle-queue — warm-first rides the same index paths under
// TestDispatcherMatchesNaivePick).
func TestTenKServerShardDigests(t *testing.T) {
	if testing.Short() {
		t.Skip("10k-server digest runs are not short")
	}
	t.Parallel()
	invs, err := BuildWorkload(WorkloadSpec{Seed: 7, Minutes: 2, MaxInvocations: 30000})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Dispatch{DispatchLeastLoaded, DispatchJoinIdleQueue} {
		opts := ClusterOptions{
			Servers: 10000, CoresPerServer: 2, Dispatch: d,
			Scheduler: SchedulerHybrid, Seed: 1,
		}
		flat, err := SimulateCluster(opts, invs)
		if err != nil {
			t.Fatalf("%s flat: %v", d, err)
		}
		want := digestCluster(flat)
		for _, shards := range []int{1, 7} {
			opts.Shards, opts.Workers = shards, 4
			res, err := SimulateCluster(opts, invs)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", d, shards, err)
			}
			if got := digestCluster(res); got != want {
				t.Errorf("%s shards=%d: digest %.12s… != flat %.12s…", d, shards, got, want)
			}
		}
	}
}

// TestShardedReplayMatchesCluster: the facade's sharded windowed replay
// must agree with SimulateCluster on the observables an accumulator
// keeps — completions, makespan, cost — for the same fleet and workload.
func TestShardedReplayMatchesCluster(t *testing.T) {
	t.Parallel()
	invs := goldenWorkload(t)
	opts := ClusterOptions{
		Servers: 3, CoresPerServer: 4, Dispatch: DispatchRoundRobin,
		Scheduler: SchedulerHybrid, Seed: 1,
	}
	flat, err := SimulateCluster(opts, invs)
	if err != nil {
		t.Fatal(err)
	}
	opts.Shards, opts.Workers = 3, 2
	opts.MetricsWindow = 10 * time.Second
	stats, err := SimulateShardedReplay(opts, SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	if stats.Invocations != len(invs) {
		t.Errorf("replay routed %d invocations, want %d", stats.Invocations, len(invs))
	}
	if stats.Total().Completed() != len(flat.Set.Records) {
		t.Errorf("replay completed %d, cluster %d", stats.Total().Completed(), len(flat.Set.Records))
	}
	if stats.Makespan != flat.Makespan {
		t.Errorf("replay makespan %v, cluster %v", stats.Makespan, flat.Makespan)
	}
	wantCost := flat.CostUSD()
	if got := stats.Total().Cost(); got < wantCost*0.999999 || got > wantCost*1.000001 {
		t.Errorf("replay cost %v, cluster %v", got, wantCost)
	}
	if stats.Summary() == "" || stats.WindowCount() == 0 || stats.WindowWidth() != 10*time.Second {
		t.Error("replay stats accessors broken")
	}
	if _, err := SimulateShardedReplay(ClusterOptions{Scheduler: "bogus"}, SliceSource(invs)); err == nil {
		t.Error("bad scheduler accepted")
	}
}
