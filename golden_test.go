package faassched

// Golden determinism digests: every scheduler (single machine and fleet)
// is run on a fixed seed and the full per-invocation record stream is
// hashed. The committed digests in testdata/golden_digests.json pin the
// simulator's observable behavior bit-for-bit — a refactor of the event
// core must not change a single one, because events must keep firing in
// exactly the same (time, class, seq) order. Every single-machine
// scheduler runs through BOTH dataflows — materialized (pre-seeded tasks,
// end-of-run Collect) and streamed as a one-server fleet (lazy admission,
// completion sinks, task recycling) — and both must hash to the same
// committed digest. Fleets run on the lockstep engine, and a pinned
// autoscaler must hash to the same fleet digests.
//
// Regenerate (only when an intentional semantic change is made) with:
//
//	go test -run TestGoldenDigests -update-golden .

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/faassched/faassched/internal/autoscale"
	"github.com/faassched/faassched/internal/obs"
	"github.com/faassched/faassched/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden_digests.json")

const goldenPath = "testdata/golden_digests.json"

// goldenWorkload is the fixed input: seed 1, one trace minute, stride
// sampled to 400 invocations so the whole matrix stays fast.
func goldenWorkload(t *testing.T) []Invocation {
	t.Helper()
	invs, err := BuildWorkload(WorkloadSpec{Seed: 1, Minutes: 1, MaxInvocations: 400})
	if err != nil {
		t.Fatal(err)
	}
	return invs
}

// goldenObs builds a fully enabled observability bundle (counters,
// tracing with per-core segments to io.Discard, progress atomics). The
// golden matrix runs WITH observation on, so the committed digests prove
// the obs layer is inert — enabling it changes no simulated decision
// (DESIGN.md §13).
func goldenObs(t *testing.T) *obs.Obs {
	t.Helper()
	tr := obs.NewTracer(io.Discard, obs.TraceConfig{Segments: true})
	t.Cleanup(func() {
		if err := tr.Close(); err != nil {
			t.Errorf("golden tracer: %v", err)
		}
	})
	return &obs.Obs{Counters: obs.NewRegistry(), Trace: tr, Prog: &obs.Progress{}}
}

// digestResult canonically serializes a Result's observable state.
func digestResult(r *Result) string {
	h := sha256.New()
	fmt.Fprintf(h, "scheduler=%s makespan=%d preemptions=%d launched=%d failedvms=%d\n",
		r.Scheduler, int64(r.Makespan), r.Preemptions, r.LaunchedVMs, r.FailedVMs)
	for _, rec := range r.Set.Records {
		fmt.Fprintf(h, "%d|%s|%d|%d|%d|%d|%d|%d|%d|%t\n",
			rec.ID, rec.Label, int64(rec.Arrival), int64(rec.FirstRun), int64(rec.Finish),
			int64(rec.CPU), rec.Preemptions, rec.MemMB, rec.FibN, rec.Failed)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// digestCluster extends the result digest with the routing decisions and
// per-server shape.
func digestCluster(r *ClusterResult) string {
	h := sha256.New()
	fmt.Fprintf(h, "base=%s dispatch=%s servers=%d\n", digestResult(&r.Result), r.Dispatch, r.Servers)
	for i, s := range r.Assignment {
		fmt.Fprintf(h, "a%d=%d\n", i, s)
	}
	for _, sr := range r.PerServer {
		fmt.Fprintf(h, "s%d n=%d makespan=%d preempt=%d\n", sr.Server, sr.Invocations, int64(sr.Makespan), sr.Preemptions)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// computeDigests runs the full golden matrix through the materialized
// dataflow (pre-seeded tasks, end-of-run Collect).
func computeDigests(t *testing.T) map[string]string {
	t.Helper()
	invs := goldenWorkload(t)
	out := map[string]string{}
	o := goldenObs(t)

	for _, sched := range Schedulers() {
		res, err := Simulate(Options{Cores: 8, Scheduler: sched, Obs: o}, invs)
		if err != nil {
			t.Fatalf("%s: %v", sched, err)
		}
		out["sim/"+string(sched)] = digestResult(res)
	}

	// One Firecracker-mode run (spawns VMM/IO threads mid-simulation —
	// the heaviest exercise of timer + arrival event interleaving).
	fcres, err := Simulate(Options{Cores: 8, Scheduler: SchedulerHybrid, Firecracker: true, Obs: o}, invs)
	if err != nil {
		t.Fatalf("firecracker: %v", err)
	}
	out["sim/hybrid+firecracker"] = digestResult(fcres)

	for _, d := range Dispatches() {
		cres, err := SimulateCluster(ClusterOptions{
			Servers: 3, CoresPerServer: 4, Dispatch: d, Scheduler: SchedulerHybrid, Seed: 1, Obs: o,
		}, invs)
		if err != nil {
			t.Fatalf("cluster %s: %v", d, err)
		}
		out["cluster/hybrid/"+string(d)] = digestCluster(cres)
	}
	// A CFS fleet covers the preemption-heavy cancel path at cluster scale.
	cres, err := SimulateCluster(ClusterOptions{
		Servers: 3, CoresPerServer: 4, Dispatch: DispatchLeastLoaded, Scheduler: SchedulerCFS, Seed: 1, Obs: o,
	}, invs)
	if err != nil {
		t.Fatalf("cluster cfs: %v", err)
	}
	out["cluster/cfs/least-loaded"] = digestCluster(cres)
	return out
}

// computeOneServerDigests reruns the single-machine half of the golden
// matrix as one-server fleets — the streamed dataflow: lazy arrival
// admission, completion-sink retirement, task recycling — under the SAME
// keys as computeDigests. Both dataflows must be observationally
// identical, so every one-server digest must match the committed
// materialized digest bit for bit. (The Firecracker entry has no twin:
// microVMs run only on the materialized Simulate, whose records come in
// vCPU-admission order.)
func computeOneServerDigests(t *testing.T) map[string]string {
	t.Helper()
	invs := goldenWorkload(t)
	out := map[string]string{}
	o := goldenObs(t)

	for _, sched := range Schedulers() {
		cres, err := SimulateCluster(ClusterOptions{Servers: 1, CoresPerServer: 8, Scheduler: sched, Obs: o}, invs)
		if err != nil {
			t.Fatalf("one-server %s: %v", sched, err)
		}
		out["sim/"+string(sched)] = digestResult(&cres.Result)
	}
	return out
}

// autoscaledExact runs the elastic autoscaler with exact per-server
// record sets and the full assignment, packaged as a ClusterResult for
// digestCluster.
func autoscaledExact(t *testing.T, opts AutoscaleOptions, invs []Invocation) *ClusterResult {
	t.Helper()
	opts, cfg, err := autoscaleConfig(opts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.TrackAssignment = true
	res, err := autoscale.Run(cfg, workload.SliceSource(invs))
	if err != nil {
		t.Fatalf("autoscaled %s/%s: %v", opts.Scheduler, opts.Dispatch, err)
	}
	out := &ClusterResult{
		Result: Result{
			Scheduler:   opts.Scheduler,
			Makespan:    res.Makespan,
			Preemptions: res.Preemptions,
		},
		Dispatch:       res.Dispatch,
		Servers:        res.Launched(),
		CoresPerServer: opts.CoresPerServer,
		Assignment:     res.Assignment,
	}
	for i := range res.Servers {
		sv := &res.Servers[i]
		sr := ServerResult{
			Server:      sv.Index,
			Invocations: sv.Routed,
			Makespan:    sv.Makespan,
			Preemptions: sv.Preemptions,
		}
		if sv.Set != nil {
			sr.Set = *sv.Set
			out.Result.Set.Records = append(out.Result.Set.Records, sv.Set.Records...)
		}
		out.PerServer = append(out.PerServer, sr)
	}
	sort.Slice(out.Result.Set.Records, func(i, j int) bool {
		return out.Result.Set.Records[i].ID < out.Result.Set.Records[j].ID
	})
	return out
}

// computeAutoscaledDigests reruns the fleet half of the golden matrix
// through the elastic autoscaler pinned to MinServers == MaxServers — no
// scaling decision can fire, so the streaming dispatcher must route,
// simulate, and merge exactly like the fixed fleet. The digests
// are compared against the SAME committed cluster keys: the autoscaler
// earns no digests of its own, it must reproduce the existing ones.
func computeAutoscaledDigests(t *testing.T) map[string]string {
	t.Helper()
	invs := goldenWorkload(t)
	out := map[string]string{}
	o := goldenObs(t)

	for _, d := range Dispatches() {
		cres := autoscaledExact(t, AutoscaleOptions{
			MinServers: 3, MaxServers: 3, CoresPerServer: 4,
			Dispatch: d, Scheduler: SchedulerHybrid, Seed: 1, Obs: o,
		}, invs)
		out["cluster/hybrid/"+string(d)] = digestCluster(cres)
	}
	cres := autoscaledExact(t, AutoscaleOptions{
		MinServers: 3, MaxServers: 3, CoresPerServer: 4,
		Dispatch: DispatchLeastLoaded, Scheduler: SchedulerCFS, Seed: 1, Obs: o,
	}, invs)
	out["cluster/cfs/least-loaded"] = digestCluster(cres)
	return out
}

// computeInstrumentedDigests reruns the fleet half of the golden matrix
// with the fault seam threaded but every fault rate zero (Instrument:
// true — machines constructed, routing hooks installed). The digests are compared against the SAME committed
// cluster keys: the fault layer must be byte-for-byte inert when its
// plan is empty (DESIGN.md §14).
func computeInstrumentedDigests(t *testing.T) map[string]string {
	t.Helper()
	invs := goldenWorkload(t)
	out := map[string]string{}
	o := goldenObs(t)
	seam := FaultOptions{Instrument: true}

	for _, d := range Dispatches() {
		cres, err := SimulateCluster(ClusterOptions{
			Servers: 3, CoresPerServer: 4, Dispatch: d, Scheduler: SchedulerHybrid,
			Seed: 1, Faults: seam, Obs: o,
		}, invs)
		if err != nil {
			t.Fatalf("instrumented cluster %s: %v", d, err)
		}
		out["cluster/hybrid/"+string(d)] = digestCluster(cres)
	}
	cres, err := SimulateCluster(ClusterOptions{
		Servers: 3, CoresPerServer: 4, Dispatch: DispatchLeastLoaded, Scheduler: SchedulerCFS,
		Seed: 1, Faults: seam, Obs: o,
	}, invs)
	if err != nil {
		t.Fatalf("instrumented cluster cfs: %v", err)
	}
	out["cluster/cfs/least-loaded"] = digestCluster(cres)
	return out
}

func TestGoldenDigests(t *testing.T) {
	got := computeDigests(t)

	// The one-server fleet must reproduce the materialized digests for
	// every scheduler — this is the proof that lazy admission + sink
	// retirement + task recycling are observationally invisible.
	oneServer := computeOneServerDigests(t)
	if len(oneServer) != len(Schedulers()) {
		t.Errorf("one-server twin covers %d of %d schedulers", len(oneServer), len(Schedulers()))
	}
	for k, v := range oneServer {
		if got[k] != v {
			t.Errorf("one-server fleet diverges from materialized on %s:\n  one-server   %.12s…\n  materialized %.12s…", k, v, got[k])
		}
	}

	// A pinned (min=max) autoscaler must reproduce the fixed fleet bit
	// for bit — the determinism bar for the elastic dispatcher.
	autoscaled := computeAutoscaledDigests(t)
	for k, v := range autoscaled {
		if got[k] != v {
			t.Errorf("pinned autoscaler diverges from fixed fleet on %s:\n  autoscaled %.12s…\n  fixed      %.12s…", k, v, got[k])
		}
	}

	// The fault seam threaded with an empty plan (Instrument) must also
	// reproduce the committed digests — the inertness bar for the fault
	// layer.
	instrumented := computeInstrumentedDigests(t)
	for k, v := range instrumented {
		if got[k] != v {
			t.Errorf("instrumented fault seam diverges from fault-free run on %s:\n  instrumented %.12s…\n  fault-free   %.12s…", k, v, got[k])
		}
	}

	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d digests", goldenPath, len(got))
		return
	}

	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read %s (generate with -update-golden): %v", goldenPath, err)
	}
	want := map[string]string{}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}

	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var bad []string
	for _, k := range keys {
		if got[k] != want[k] {
			bad = append(bad, fmt.Sprintf("%s: got %.12s… want %.12s…", k, got[k], want[k]))
		}
	}
	if len(got) != len(want) {
		t.Errorf("digest count %d != committed %d", len(got), len(want))
	}
	if len(bad) > 0 {
		t.Errorf("determinism digests changed:\n  %s", strings.Join(bad, "\n  "))
	}
}

// TestGoldenDigestsStableAcrossRuns guards the guard: two in-process runs
// of the same matrix must agree, or the digests prove nothing.
func TestGoldenDigestsStableAcrossRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: double-run covered by TestGoldenDigests")
	}
	a := computeDigests(t)
	b := computeDigests(t)
	for k, v := range a {
		if b[k] != v {
			t.Errorf("digest %s differs between identical runs", k)
		}
	}
}
