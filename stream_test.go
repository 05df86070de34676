package faassched

import (
	"math"
	"testing"
)

// TestOneServerReplayAgreesWithExact: a one-server sharded replay — the
// fixed-memory streamed single machine — must agree with the
// materialized Simulate on counts, aggregates and cost, and land
// quantiles near the exact record set's.
func TestOneServerReplayAgreesWithExact(t *testing.T) {
	t.Parallel()
	invs := smallWorkload(t)
	exact, err := Simulate(Options{Cores: 4, Scheduler: SchedulerHybrid}, invs)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := SimulateShardedReplay(ClusterOptions{Servers: 1, CoresPerServer: 4, Scheduler: SchedulerHybrid}, SliceSource(invs))
	if err != nil {
		t.Fatal(err)
	}
	acc := rep.Total()
	if acc.Completed() != len(invs) || acc.FailedCount() != 0 {
		t.Fatalf("accumulated %d/%d, want %d/0", acc.Completed(), acc.FailedCount(), len(invs))
	}
	if rep.Makespan != exact.Makespan || acc.TotalPreemptions() != exact.Preemptions {
		t.Error("accumulated aggregates differ from exact run")
	}
	// The accumulator sums cost in completion order, the exact set in ID
	// order; float addition is order-sensitive at the last ulp.
	if got, want := acc.Cost(), exact.CostUSD(); math.Abs(got-want) > want*1e-12 {
		t.Errorf("cost %v != %v", got, want)
	}
	ep99, err := exact.P99Seconds(Turnaround)
	if err != nil {
		t.Fatal(err)
	}
	ap99, err := acc.P99(Turnaround)
	if err != nil {
		t.Fatal(err)
	}
	if ap99 < ep99*0.8 || ap99 > ep99*1.2 {
		t.Errorf("accumulated p99 %.3fs vs exact %.3fs", ap99, ep99)
	}
	if rep.Summary() == "" {
		t.Error("empty summary")
	}
}

// TestBuildWorkloadSourceMatchesBuildWorkload: the lazy source must yield
// the materialized list exactly, including the MaxInvocations fallback.
func TestBuildWorkloadSourceMatchesBuildWorkload(t *testing.T) {
	t.Parallel()
	for _, spec := range []WorkloadSpec{
		{Minutes: 1},
		{Minutes: 1, MaxInvocations: 120},
	} {
		want, err := BuildWorkload(spec)
		if err != nil {
			t.Fatal(err)
		}
		src, err := BuildWorkloadSource(spec)
		if err != nil {
			t.Fatal(err)
		}
		var got []Invocation
		src(func(inv Invocation) bool {
			got = append(got, inv)
			return true
		})
		if len(got) != len(want) {
			t.Fatalf("source yields %d, build %d (spec %+v)", len(got), len(want), spec)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("invocation %d differs (spec %+v)", i, spec)
			}
		}
	}
	if _, err := BuildWorkloadSource(WorkloadSpec{Minutes: 99}); err == nil {
		t.Error("bad minutes accepted")
	}
}

// TestSimulateClusterStreamed: the public fleet API streams each server's
// share through lazy admission; on a one-server fleet, where routing has
// no choice to make, it must match the materialized single-machine
// Simulate bit for bit.
func TestSimulateClusterStreamed(t *testing.T) {
	t.Parallel()
	invs := smallWorkload(t)
	for _, sched := range []Scheduler{SchedulerCFS, SchedulerFIFO, SchedulerHybrid} {
		mat, err := Simulate(Options{Cores: 4, Scheduler: sched}, invs)
		if err != nil {
			t.Fatal(err)
		}
		st, err := SimulateCluster(ClusterOptions{Servers: 1, CoresPerServer: 4, Scheduler: sched, Seed: 1}, invs)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Set.Records) != len(mat.Set.Records) {
			t.Fatalf("%s: streamed fleet %d records, materialized %d", sched, len(st.Set.Records), len(mat.Set.Records))
		}
		for i := range mat.Set.Records {
			if st.Set.Records[i] != mat.Set.Records[i] {
				t.Fatalf("%s: fleet record %d differs:\nstreamed     %+v\nmaterialized %+v",
					sched, i, st.Set.Records[i], mat.Set.Records[i])
			}
		}
		if st.Makespan != mat.Makespan || st.Preemptions != mat.Preemptions {
			t.Errorf("%s: fleet aggregates differ", sched)
		}
	}
}
