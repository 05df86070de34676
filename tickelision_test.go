package faassched

// Tick-elision equivalence oracle (DESIGN.md §9): the horizon pump must be
// observationally identical to the naive every-boundary pump it elides.
// ghost.Config.ForceTickPump is the test knob that forces the naive
// pump, so each (seed × scheduler × machine) cell runs three ways —
// materialized-naive (the reference), materialized-elided, and
// streamed-elided — and all three must produce identical per-invocation
// record streams. TestGoldenDigests separately pins the same claim against
// the committed digests; this oracle adds randomized workloads, the
// adaptive/rightsizing hybrid (whose monitor mutates state from policy
// timers), a host-interference machine (where the FIFO time-limit
// horizon is conservative and must converge through no-op ticks), and
// the two policy wrappers the enclave finds the Ticker through: the
// Firecracker fleet (whose refused launches abort tasks inside message
// dispatch) and the fault machine (whose crash sweeps and timeouts abort
// tasks from fault timers).

import (
	"fmt"
	"sort"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/cluster"
	"github.com/faassched/faassched/internal/core"
	"github.com/faassched/faassched/internal/faults"
	"github.com/faassched/faassched/internal/firecracker"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/policy/cfs"
	"github.com/faassched/faassched/internal/policy/fifo"
	"github.com/faassched/faassched/internal/policy/las"
	"github.com/faassched/faassched/internal/policy/rr"
	"github.com/faassched/faassched/internal/policy/shinjuku"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/simrun"
	"github.com/faassched/faassched/internal/workload"
)

// oracleRecordsDiff compares two record streams field by field and returns
// a description of the first divergence ("" when identical).
func oracleRecordsDiff(a, b []metrics.Record) string {
	if len(a) != len(b) {
		return fmt.Sprintf("record count %d != %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			return fmt.Sprintf("record %d: %+v != %+v", i, a[i], b[i])
		}
	}
	return ""
}

// oracleMaterialized runs invs on one machine with pre-seeded tasks and
// returns the collected records plus the enclave's tick counters.
func oracleMaterialized(t *testing.T, kcfg simkern.Config, policy ghost.Policy, invs []Invocation, force bool) ([]metrics.Record, ghost.Stats) {
	t.Helper()
	k, err := simkern.New(kcfg)
	if err != nil {
		t.Fatal(err)
	}
	enc, err := ghost.NewEnclave(k, policy, ghost.Config{ForceTickPump: force})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range workload.Tasks(invs) {
		if err := k.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if n := k.Outstanding(); n != 0 {
		t.Fatalf("%d tasks unfinished under %s", n, policy.Name())
	}
	return metrics.Collect(k).Records, enc.Stats()
}

// oracleStreamed runs invs through lazy admission + sink retirement and
// returns the records (sorted back to id order) plus the tick counters.
func oracleStreamed(t *testing.T, kcfg simkern.Config, policy ghost.Policy, invs []Invocation, force bool) ([]metrics.Record, ghost.Stats) {
	t.Helper()
	var set metrics.Set
	var st ghost.Stats
	_, err := simrun.ExecStreamPooled(kcfg, policy, ghost.Config{ForceTickPump: force},
		workload.SliceSource(invs), simrun.StreamConfig{Sink: &set, Stats: &st})
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(set.Records, func(i, j int) bool { return set.Records[i].ID < set.Records[j].ID })
	return set.Records, st
}

// oracleFirecracker runs invs one microVM per invocation under a fleet
// with the given memory budget, on the materialized or the streamed path,
// and returns the records in id order, the tick counters and the number
// of refused launches.
func oracleFirecracker(t *testing.T, policy ghost.Policy, invs []Invocation, memMB int, streamed, force bool) ([]metrics.Record, ghost.Stats, int) {
	t.Helper()
	fleet, err := firecracker.NewFleet(policy, firecracker.Config{ServerMemMB: memMB})
	if err != nil {
		t.Fatal(err)
	}
	kcfg, gcfg := simkern.DefaultConfig(8), ghost.Config{ForceTickPump: force}
	var set metrics.Set
	var st ghost.Stats
	if streamed {
		_, err = simrun.ExecStream(kcfg, fleet, gcfg, fleet.Stream(workload.SliceSource(invs), &set),
			simrun.StreamConfig{Sink: &set, Stats: &st})
	} else {
		var k *simkern.Kernel
		k, err = simrun.ExecStats(kcfg, fleet, gcfg, func(k *simkern.Kernel) error { return fleet.Launch(k, invs) }, &st)
		if err == nil {
			set = metrics.Collect(k)
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(set.Records, func(i, j int) bool { return set.Records[i].ID < set.Records[j].ID })
	return set.Records, st, fleet.Failed()
}

// oracleFaulty runs invs through a 3-server fleet under a crash + timeout
// + retry plan — through Simulate (the lockstep run at its default shard
// count) or SimulateShardedExact at three shards — and returns the fleet
// result.
func oracleFaulty(t *testing.T, mk func() ghost.Policy, invs []Invocation, sharded, force bool) *cluster.Result {
	t.Helper()
	cfg := cluster.Config{
		Servers:  3,
		Dispatch: cluster.DispatchLeastLoaded,
		Kernel:   simkern.DefaultConfig(4),
		Policy:   mk,
		Ghost:    ghost.Config{ForceTickPump: force},
		Seed:     1,
		Faults: faults.Config{
			Seed:      5,
			CrashMTBF: 20 * time.Second,
			Downtime:  4 * time.Second,
			Timeout:   15 * time.Second,
			Retry:     faults.RetryPolicy{MaxAttempts: 3},
		},
	}
	var res *cluster.Result
	var err error
	if sharded {
		cfg.Shards, cfg.Workers = 3, 2
		res, err = cluster.SimulateShardedExact(cfg, workload.SliceSource(invs))
	} else {
		res, err = cluster.Simulate(cfg, invs)
	}
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// oracleTicksSaved fails the cell unless the comparison is non-vacuous:
// the naive pump ticked and elided nothing, and the elided pump skipped
// boundaries while firing fewer ticks.
func oracleTicksSaved(t *testing.T, naive, elided ghost.Stats) {
	t.Helper()
	if naive.Ticks == 0 {
		t.Fatal("naive pump fired no ticks; oracle proves nothing")
	}
	if naive.TicksElided != 0 {
		t.Fatalf("naive pump reported %d elided ticks", naive.TicksElided)
	}
	if elided.TicksElided == 0 {
		t.Fatalf("elided pump skipped no boundaries (fired %d)", elided.Ticks)
	}
	if elided.Ticks >= naive.Ticks {
		t.Fatalf("elided pump fired %d ticks, naive %d", elided.Ticks, naive.Ticks)
	}
	t.Logf("ticks fired: naive %d, elided %d (%d boundaries skipped)", naive.Ticks, elided.Ticks, elided.TicksElided)
}

func TestTickElisionOracle(t *testing.T) {
	seeds := []int64{1, 7, 42}
	maxInvs := 400
	if testing.Short() {
		seeds = seeds[:2]
		maxInvs = 200
	}

	schedulers := []struct {
		name string
		mk   func() ghost.Policy
	}{
		{"cfs", func() ghost.Policy { return cfs.New(cfs.Params{}) }},
		// fifo+quantum and rr elide through the fifo.Engine quantum-expiry
		// horizon; their expiries are pure wall time, so interference
		// coverage only exercises conservatism, never lateness.
		{"fifo+quantum", func() ghost.Policy {
			return fifo.New(fifo.Config{Quantum: 100 * time.Millisecond})
		}},
		{"rr", func() ghost.Policy { return rr.New(rr.Config{}) }},
		// las elides through an attained-service threshold horizon: under
		// interference consumption lags wall time, so the horizon is
		// conservative and must converge through no-op ticks. shinjuku's
		// segment-start + quantum horizon is pure wall time like rr's.
		{"las", func() ghost.Policy { return las.New(las.Config{}) }},
		{"shinjuku", func() ghost.Policy { return shinjuku.New(shinjuku.Config{}) }},
		{"hybrid", func() ghost.Policy {
			return core.New(core.Config{FIFOCores: 4})
		}},
		// The adaptive + rightsizing hybrid covers the policy-timer paths:
		// the monitor migrates cores and the limit moves with completions,
		// both of which must re-arm the horizon via Env.InvalidateHorizon.
		// A short limit and aggressive rightsizing force both mechanisms on
		// this small workload.
		{"hybrid+dyn", func() ghost.Policy {
			return core.New(core.Config{
				FIFOCores: 4,
				TimeLimit: core.TimeLimitConfig{Static: 50 * time.Millisecond, Percentile: 0.75},
				Rightsize: core.RightsizeConfig{Enabled: true, Threshold: 0.05, Cooldown: 500 * time.Millisecond},
			})
		}},
	}

	machines := []struct {
		name string
		kcfg func() simkern.Config
	}{
		{"clean", func() simkern.Config { return simkern.DefaultConfig(8) }},
		// Host interference makes the hybrid's FIFO time-limit horizon a
		// lower bound rather than exact: the pump must converge through
		// conservative no-op ticks without ever firing late.
		{"interference", func() simkern.Config {
			kcfg := simkern.DefaultConfig(8)
			kcfg.Interference = simkern.PeriodicInterference{Period: 10 * time.Millisecond, Steal: time.Millisecond}
			return kcfg
		}},
	}

	for _, seed := range seeds {
		invs, err := BuildWorkload(WorkloadSpec{Seed: seed, Minutes: 1, MaxInvocations: maxInvs})
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range machines {
			for _, s := range schedulers {
				if m.name == "interference" && s.name == "cfs" {
					continue // CFS horizons are wall-clock exact; covered by clean
				}
				t.Run(fmt.Sprintf("seed%d/%s/%s", seed, m.name, s.name), func(t *testing.T) {
					naive, naiveStats := oracleMaterialized(t, m.kcfg(), s.mk(), invs, true)
					elided, elidedStats := oracleMaterialized(t, m.kcfg(), s.mk(), invs, false)
					if d := oracleRecordsDiff(naive, elided); d != "" {
						t.Fatalf("elided pump diverges from naive pump: %s", d)
					}
					streamed, _ := oracleStreamed(t, m.kcfg(), s.mk(), invs, false)
					if d := oracleRecordsDiff(naive, streamed); d != "" {
						t.Fatalf("streamed elided run diverges from naive pump: %s", d)
					}
					// Guard against a vacuous pass: the naive pump must
					// have ticked, and the elided pump must have skipped
					// boundaries while firing at most as many ticks.
					if naiveStats.Ticks == 0 {
						t.Fatal("naive pump fired no ticks; oracle proves nothing")
					}
					if naiveStats.TicksElided != 0 {
						t.Fatalf("naive pump reported %d elided ticks", naiveStats.TicksElided)
					}
					if elidedStats.TicksElided == 0 {
						t.Fatalf("elided pump skipped no boundaries (fired %d)", elidedStats.Ticks)
					}
					if elidedStats.Ticks > naiveStats.Ticks {
						t.Fatalf("elided pump fired %d ticks, naive only %d", elidedStats.Ticks, naiveStats.Ticks)
					}
				})
			}
		}
		// Firecracker-wrapped: the enclave reaches the scheduler's Ticker
		// through Fleet.Unwrap. The tight budget refuses most launches, so
		// both paths abort tasks inside message dispatch. Every run must
		// match the materialized naive reference.
		for _, memMB := range []int{0, oracleTightMemMB} {
			for _, s := range schedulers {
				t.Run(fmt.Sprintf("seed%d/firecracker-mem%d/%s", seed, memMB, s.name), func(t *testing.T) {
					var ref []metrics.Record
					for _, streamed := range []bool{false, true} {
						naive, naiveStats, failed := oracleFirecracker(t, s.mk(), invs, memMB, streamed, true)
						if (failed > 0) != (memMB == oracleTightMemMB) {
							t.Fatalf("%d launches refused under a %d MB budget", failed, memMB)
						}
						if ref == nil {
							ref = naive
						} else if d := oracleRecordsDiff(ref, naive); d != "" {
							t.Fatalf("streamed naive run diverges from materialized: %s", d)
						}
						elided, elidedStats, _ := oracleFirecracker(t, s.mk(), invs, memMB, streamed, false)
						if d := oracleRecordsDiff(ref, elided); d != "" {
							t.Fatalf("streamed=%v elided run diverges from naive pump: %s", streamed, d)
						}
						oracleTicksSaved(t, naiveStats, elidedStats)
					}
				})
			}
		}
		// Fault-machine-wrapped: crash sweeps and timeouts abort tasks from
		// fault timers, flat and lockstep-sharded.
		for _, s := range schedulers {
			if s.name != "cfs" && s.name != "hybrid" && s.name != "fifo+quantum" {
				continue // the plan kills, which needs a ghost.TaskEvictor
			}
			for _, sharded := range []bool{false, true} {
				t.Run(fmt.Sprintf("seed%d/faults-sharded=%v/%s", seed, sharded, s.name), func(t *testing.T) {
					naive := oracleFaulty(t, s.mk, invs, sharded, true)
					elided := oracleFaulty(t, s.mk, invs, sharded, false)
					if naive.Faults.Kills == 0 || naive.Faults.Retries == 0 {
						t.Fatalf("plan never killed: %+v", naive.Faults)
					}
					if d := oracleRecordsDiff(naive.Set.Records, elided.Set.Records); d != "" {
						t.Fatalf("elided pump diverges from naive pump: %s", d)
					}
					if naive.Faults != elided.Faults {
						t.Fatalf("fault stats %+v != naive %+v", elided.Faults, naive.Faults)
					}
					oracleTicksSaved(t, naive.Stats, elided.Stats)
				})
			}
		}
	}
}

// oracleTightMemMB is a microVM memory budget small enough that most of
// the oracle workload's launches are refused.
const oracleTightMemMB = 16 * 1024
