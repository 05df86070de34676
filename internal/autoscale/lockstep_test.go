package autoscale

import (
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/cluster"
	"github.com/faassched/faassched/internal/faults"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/obs"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/simrun"
	"github.com/faassched/faassched/internal/workload"
)

// TestScalingRunMatchesMaterialized is the materialized oracle for runs
// that actually scale: each server's routed share, replayed pre-seeded on
// its own machine (simrun.ExecStats + metrics.Collect, ID = index+1),
// must give the lockstep run's records and makespan exactly — drained
// and canceled servers included.
func TestScalingRunMatchesMaterialized(t *testing.T) {
	invs := burstyWorkload(0, 2)
	scheds := map[string]func() ghost.Policy{"cfs": cfsFactory, "fifo": fifoFactory}
	for _, pol := range Policies() {
		for name, sched := range scheds {
			pol, sched := pol, sched
			t.Run(string(pol)+"/"+name, func(t *testing.T) {
				t.Parallel()
				cfg := fastScaleConfig(1, 4, pol)
				cfg.Sched = sched
				cfg.TrackAssignment = true
				res, err := Run(cfg, workload.SliceSource(invs))
				if err != nil {
					t.Fatal(err)
				}
				if res.Drained() == 0 || res.Launched() <= 1 {
					t.Fatalf("launched=%d drained=%d: the fleet never scaled; test is vacuous",
						res.Launched(), res.Drained())
				}
				shares := make([][]*simkern.Task, len(res.Servers))
				for i, s := range res.Assignment {
					shares[s] = append(shares[s], workload.Task(invs[i], simkern.TaskID(i+1)))
				}
				for s := range res.Servers {
					sv := &res.Servers[s]
					var want metrics.Set
					var makespan time.Duration
					if len(shares[s]) > 0 {
						k, err := simrun.ExecStats(cfg.Kernel, sched(), cfg.Ghost, simrun.AddTasks(shares[s]), nil)
						if err != nil {
							t.Fatalf("reference server %d: %v", s, err)
						}
						want, makespan = metrics.Collect(k), k.Makespan()
					}
					if sv.Makespan != makespan {
						t.Errorf("server %d (drain %v, canceled %v): makespan %v, want %v",
							s, sv.DrainAt, sv.Canceled, sv.Makespan, makespan)
					}
					if len(sv.Set.Records) != len(want.Records) {
						t.Fatalf("server %d: %d records, want %d", s, len(sv.Set.Records), len(want.Records))
					}
					for i := range want.Records {
						if sv.Set.Records[i] != want.Records[i] {
							t.Fatalf("server %d record %d: %+v, want %+v", s, i, sv.Set.Records[i], want.Records[i])
						}
					}
				}
			})
		}
	}
}

// crashyScalingConfig is a scaling run with terminal crashes, timeouts,
// retries and warm-first cold starts under CFS.
func crashyScalingConfig() Config {
	cfg := fastScaleConfig(1, 16, PolicyTargetUtilization)
	cfg.Sched = cfsFactory
	cfg.TrackAssignment = true
	cfg.ColdStart = cluster.ColdStartConfig{Latency: 2 * time.Millisecond, KeepAlive: time.Second, WarmFirst: true}
	cfg.Faults = faults.Config{
		Seed:      3,
		CrashMTBF: 4 * time.Second,
		Timeout:   150 * time.Millisecond,
		Retry:     faults.RetryPolicy{MaxAttempts: 3},
	}
	return cfg
}

// TestResultIndependentOfShardCount: the default shard count follows
// GOMAXPROCS, and the result — events, servers and records — must not.
// Not parallel: it changes GOMAXPROCS.
func TestResultIndependentOfShardCount(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	invs := burstyWorkload(0, 2)
	var ref *Result
	for _, procs := range []int{1, 2, 3} {
		runtime.GOMAXPROCS(procs)
		res, err := Run(crashyScalingConfig(), workload.SliceSource(invs))
		if err != nil {
			t.Fatal(err)
		}
		if ref == nil {
			if res.Crashed() == 0 || res.Faults.Kills == 0 || res.ColdStarts == 0 || res.Drained() == res.Crashed() {
				t.Fatalf("crashed=%d kills=%d cold=%d drained=%d: run lacks crashes, kills, cold starts or scale-down; test is vacuous",
					res.Crashed(), res.Faults.Kills, res.ColdStarts, res.Drained())
			}
			ref = res
			continue
		}
		if !reflect.DeepEqual(res, ref) {
			t.Errorf("GOMAXPROCS %d (%d shards): result differs from GOMAXPROCS 1", procs, cluster.DefaultShards(16))
		}
	}
}

// TestGoroutinesBoundedByShards: live servers share the executor's shard
// workers, so a run scaling to Max servers never holds more goroutines
// than the shard count (+2 slack) beyond what it started with. Sched runs
// on the controller goroutine at every activation, where it samples the
// count. Not parallel: it changes GOMAXPROCS and counts goroutines.
func TestGoroutinesBoundedByShards(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	cfg := fastScaleConfig(1, 32, PolicyTargetUtilization)
	peak := 0
	cfg.Sched = func() ghost.Policy {
		peak = max(peak, runtime.NumGoroutine())
		return fifoFactory()
	}
	before := runtime.NumGoroutine()
	res, err := Run(cfg, workload.SliceSource(steady(3000, 500*time.Microsecond, 40*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	if res.PeakServers < 32 {
		t.Fatalf("peak fleet %d: the burst never reached Max; test is vacuous", res.PeakServers)
	}
	if shards := cluster.DefaultShards(cfg.Max); peak-before > shards+2 {
		t.Errorf("%d goroutines beyond the %d before Run at a %d-server peak, want <= %d shards + 2",
			peak-before, before, res.PeakServers, shards)
	}
}

// TestCountersCountedOnce: the executor adds the fleet's enclave,
// kernel-event and fault-machine counters, and the controller its own;
// each registry counter must equal its Result field exactly.
func TestCountersCountedOnce(t *testing.T) {
	t.Parallel()
	cfg := crashyScalingConfig()
	reg := obs.NewRegistry()
	cfg.Obs = &obs.Obs{Counters: reg}
	res, err := Run(cfg, workload.SliceSource(burstyWorkload(0, 2)))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		want int64
	}{
		{obs.CKernEvents, int64(res.KernelEvents)},
		{obs.CGhostTicks, res.Stats.Ticks},
		{obs.CFaultKills, res.Faults.Kills},
		{obs.CScaleCrashes, res.Faults.Crashes},
		{obs.CInvocations, int64(res.Routed)},
	} {
		if c.want == 0 {
			t.Errorf("%s: Result field is zero; test is vacuous", c.name)
		}
		if got := reg.Counter(c.name).Value(); got != c.want {
			t.Errorf("%s = %d, want %d", c.name, got, c.want)
		}
	}
}
