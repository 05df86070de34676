package main

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"time"

	faassched "github.com/faassched/faassched"
	"github.com/faassched/faassched/internal/fib"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/obs"
	"github.com/faassched/faassched/internal/trace"
	"github.com/faassched/faassched/internal/workload"
)

// Workload shapes. Every number here is part of the benchmark's
// definition: changing one changes what the recorded references mean.
const (
	paperCores = 8 // the paper's server

	warmServers = 200
	warmCores   = 8
	warmWorkers = 2

	elasticMin   = 8
	elasticMax   = 32
	elasticCores = 8
)

// warmColdStart is fleet-warm's warm-instance model: 250 ms cold starts,
// one-minute keep-alive, warm-first dispatch.
var warmColdStart = faassched.ColdStartOptions{
	Latency:   250 * time.Millisecond,
	KeepAlive: time.Minute,
	WarmFirst: true,
}

// elasticFaults is elastic-faults' fault plan. Its seed is part of the
// workload's definition, like the function population: every window
// meets the same crash timeline, so the workload seed varies the traffic
// and not the failures. Crash timelines of their own per window move
// allocations per invocation by a third from seed to seed, since a crash
// kills every attempt resident on the server and what is resident
// depends on the moment.
const elasticFaultSeed = 1

var elasticFaults = faassched.FaultOptions{
	Seed:      elasticFaultSeed,
	CrashMTBF: 10 * time.Minute,
	Downtime:  30 * time.Second,
	Timeout:   60 * time.Second,
	Retry:     faassched.RetryOptions{MaxAttempts: 3},
}

// shape is how much a workload replays per run: windows trace windows
// of minutes each. Several short windows per run instead of one long one
// average over more of the trace, which is what makes one seed's figures
// comparable with another's.
type shape struct{ minutes, windows int }

// shapes, by size and workload: "full" is the benchmark; "smoke" only
// proves the plumbing in the self-test and has no recorded references.
var shapes = map[string]map[string]shape{
	"full": {
		"server-paper":   {minutes: 2, windows: 2},
		"fleet-warm":     {minutes: 4, windows: 6},
		"elastic-faults": {minutes: 10, windows: 3},
	},
	"smoke": {
		"server-paper":   {minutes: 1, windows: 1},
		"fleet-warm":     {minutes: 1, windows: 2},
		"elastic-faults": {minutes: 2, windows: 1},
	},
}

// input is one window's generated input: the invocations derived from
// the synthesized trace, materialized for server-paper and a lazy stream
// for the fleets.
type input struct {
	invs []workload.Invocation
	src  workload.Source
	// seed seeds the run's own randomness (dispatch, fault timelines),
	// distinct per window.
	seed int64
}

// setupTimes splits set-up into its two layers.
type setupTimes struct{ generate, build time.Duration }

// simOut is what one run of a workload computed: the simulated figures
// the benchmark reports and a digest of the whole simulated output.
type simOut struct {
	Generated int // invocations the input yielded

	CostUSD       float64
	ExecP99S      float64
	RespP99S      float64
	Goodput       float64
	ServerSeconds float64
	CFSCostRatio  float64 // server-paper only

	// Sim holds per-layer figures of the simulated system (preemptions,
	// launch failures, fleet size, retries) that never vary for a seed.
	Sim    map[string]float64
	Digest string
}

// runHooks lets the traced run observe a workload without changing it:
// an obs registry threaded through the facade options and a wrapper
// around the source the benchmark passes in.
type runHooks struct {
	obs  *obs.Obs
	wrap func(workload.Source) workload.Source
}

func (h runHooks) source(src workload.Source) workload.Source {
	if h.wrap == nil {
		return src
	}
	return h.wrap(src)
}

// workloadDef is one benchmark workload; BENCHMARK.json gives the reason
// for each.
type workloadDef struct {
	name string
	// setup synthesizes the trace for window w of seed and derives the
	// workload input.
	setup func(seed int64, w int, sh shape) (*input, setupTimes, error)
	// run simulates in through the public facade.
	run func(in *input, h runHooks) (*simOut, error)
}

var workloads = []workloadDef{
	{
		name:  "server-paper",
		setup: setupPaper,
		run:   runPaper,
	},
	{
		name:  "fleet-warm",
		setup: setupWarm,
		run:   runWarm,
	},
	{
		name:  "elastic-faults",
		setup: setupElastic,
		run:   runElastic,
	},
}

func findWorkload(name string) (workloadDef, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Offered load, in busy cores of CPU demand over the replayed window.
// Each workload is defined at a fixed load rather than a fixed rate, so
// every window it replays offers the same load whatever its place in the
// diurnal cycle.
//
// fleet-warm is meant to spend its host time routing, booking warm pools
// and retiring into sinks, with light policy work. Its 8-core hybrid
// servers reach the edge of CFS-group contention near 60% load: at 68%
// preemptions per invocation swing between 2 and 6 from one 4-minute
// window to the next, and allocations per invocation with them, while
// at 55% they stay near 0.2.
const (
	paperLoad   = 110 // ≈13.7× the 8-core server: the paper's ~3h40m of demand in 2 minutes
	warmLoad    = 880 // 55% of 200×8 cores
	elasticLoad = 110 // ≈14 servers' worth, between the 8-server floor and the 32 cap
)

// The benchmark replays windows of one synthesized trace, the way a
// recorded trace is replayed: the function population (durations, memory,
// rates) is the default calibration's seed-1 population, and the workload
// seed picks the window, which fixes the arrivals, bursts and diurnal
// phase. A population of its own per seed would not do: the simulator's
// work per invocation is set by the share of long functions, and at the
// default 2,000 functions that share differs enough from seed to seed to
// change preemptions per invocation threefold.
const (
	populationSeed = 1
	windowRange    = 240 // window starts fall in the first 4 trace hours
)

// windowStart maps window w of a workload seed to its first trace
// minute, scattering consecutive seeds and windows (splitmix64) so their
// windows rarely overlap.
func windowStart(seed int64, w int) int {
	z := uint64(windowSeed(seed, w)) + 0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % windowRange)
}

// windowSeed is window w's own seed, from which its start and its run's
// randomness derive.
func windowSeed(seed int64, w int) int64 { return seed*64 + int64(w) }

// calibrate synthesizes the trace for window w of seed and returns it
// with the window's first minute. A pilot trace at the default rate
// measures the window's demand; the real trace is regenerated at the rate
// whose window offers load busy cores once divided by downscale. Only the
// per-minute counts change with the rate.
//
// steady turns the trace's burst spikes off (a minute at up to 8× the
// rate, 2% of minutes): the fleet workloads are defined at a steady load,
// and a window holding a spike is an overload workload instead, which
// server-paper already is.
func calibrate(seed int64, w, minutes, downscale int, load float64, steady bool) (*trace.Trace, int, error) {
	start := windowStart(seed, w)
	cfg := trace.DefaultConfig()
	cfg.Seed = populationSeed
	cfg.Minutes = start + minutes
	if steady {
		cfg.SpikeProb = 0
	}
	pilot, err := trace.Generate(cfg)
	if err != nil {
		return nil, 0, err
	}
	window := time.Duration(minutes) * time.Minute
	offered := demand(pilot, start, minutes).Seconds() / float64(downscale) / window.Seconds()
	if offered <= 0 {
		return nil, 0, fmt.Errorf("seed %d: window at minute %d offers no demand", seed, start)
	}
	cfg.RateScale *= load / offered
	tr, err := trace.Generate(cfg)
	return tr, start, err
}

// demand is the CPU time minutes [start, start+minutes) of tr ask for,
// with durations bucketed the way the workload builder buckets them.
func demand(tr *trace.Trace, start, minutes int) time.Duration {
	m := fib.DefaultModel()
	var d time.Duration
	for _, row := range tr.CleanRows() {
		n := 0
		for _, c := range row.Counts[start : start+minutes] {
			n += c
		}
		d += time.Duration(n) * m.Duration(m.NearestN(row.AvgDuration))
	}
	return d
}

func setupPaper(seed int64, w int, sh shape) (*input, setupTimes, error) {
	// The paper's workload path: the trace downscaled ×100.
	start := time.Now()
	tr, first, err := calibrate(seed, w, sh.minutes, workload.DefaultDownscale, paperLoad, false)
	st := setupTimes{generate: time.Since(start)}
	if err != nil {
		return nil, st, err
	}
	start = time.Now()
	invs, err := workload.Builder{}.Build(tr, first, sh.minutes)
	st.build = time.Since(start)
	if err != nil {
		return nil, st, err
	}
	return &input{invs: invs, seed: windowSeed(seed, w)}, st, nil
}

// setupStream derives a lazy stream offering a steady load, through the
// same ×100-rate, ÷100-downscale pipeline as server-paper: each bucket's
// per-minute count is then a hundredth of a sum of large Poisson draws,
// so a window's mix of long and short invocations barely varies. A ×1
// trace (Downscale 1) draws the rare long functions' counts directly,
// and their noise alone changes preemptions per invocation by half from
// one window to the next.
func setupStream(seed int64, w, minutes int, load float64) (*input, setupTimes, error) {
	start := time.Now()
	tr, first, err := calibrate(seed, w, minutes, workload.DefaultDownscale, load, true)
	st := setupTimes{generate: time.Since(start)}
	if err != nil {
		return nil, st, err
	}
	start = time.Now()
	src, err := workload.Builder{}.Stream(tr, first, minutes)
	st.build = time.Since(start)
	if err != nil {
		return nil, st, err
	}
	return &input{src: src, seed: windowSeed(seed, w)}, st, nil
}

func setupWarm(seed int64, w int, sh shape) (*input, setupTimes, error) {
	return setupStream(seed, w, sh.minutes, warmLoad)
}

func setupElastic(seed int64, w int, sh shape) (*input, setupTimes, error) {
	return setupStream(seed, w, sh.minutes, elasticLoad)
}

// paperOpts are server-paper's three sub-runs, in order.
var paperOpts = []struct {
	name string
	opts faassched.Options
}{
	{"cfs", faassched.Options{Cores: paperCores, Scheduler: faassched.SchedulerCFS}},
	{"hybrid", faassched.Options{Cores: paperCores, Scheduler: faassched.SchedulerHybrid}},
	{"microvm", faassched.Options{Cores: paperCores, Scheduler: faassched.SchedulerHybrid, Firecracker: true}},
}

func runPaper(in *input, h runHooks) (*simOut, error) {
	results := make([]*faassched.Result, len(paperOpts))
	for i, p := range paperOpts {
		opts := p.opts
		opts.Obs = h.obs
		res, err := faassched.Simulate(opts, in.invs)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", p.name, err)
		}
		results[i] = res
	}
	return paperOut(len(in.invs), results)
}

// paperOut derives server-paper's figures from its three sub-run results
// (cfs, hybrid, microvm), whether they came from the facade or from the
// traced run's layer-by-layer calls.
func paperOut(n int, results []*faassched.Result) (*simOut, error) {
	cfs, hyb, vm := results[0], results[1], results[2]
	execP99, err := hyb.P99Seconds(faassched.Execution)
	if err != nil {
		return nil, err
	}
	respP99, err := hyb.P99Seconds(faassched.Response)
	if err != nil {
		return nil, err
	}
	out := &simOut{
		Generated:     n,
		CostUSD:       hyb.CostUSD(),
		ExecP99S:      execP99,
		RespP99S:      respP99,
		Goodput:       hyb.Set.Goodput(),
		ServerSeconds: hyb.Makespan.Seconds(),
		CFSCostRatio:  cfs.CostUSD() / hyb.CostUSD(),
		Sim: map[string]float64{
			"policy.preemptions_per_inv.cfs":     ratio(cfs.Preemptions, n),
			"policy.preemptions_per_inv.hybrid":  ratio(hyb.Preemptions, n),
			"policy.preemptions_per_inv.microvm": ratio(vm.Preemptions, n),
			"firecracker.launch_fail_ratio":      ratio(vm.FailedVMs, n),
		},
	}
	// Every sub-run must retire every invocation exactly once.
	for i, r := range results {
		if len(r.Set.Records) != n {
			return nil, fmt.Errorf("%s retired %d of %d invocations", paperOpts[i].name, len(r.Set.Records), n)
		}
	}
	d := newDigest()
	for _, r := range results {
		d.set(&r.Set)
		d.i64(int64(r.Makespan), int64(r.Preemptions), int64(r.LaunchedVMs), int64(r.FailedVMs))
	}
	out.Digest = d.sum()
	return out, nil
}

// countSource counts what src yields; the conservation checks compare the
// count with what the engine says it routed and retired.
func countSource(src workload.Source, n *int) workload.Source {
	return func(yield func(workload.Invocation) bool) {
		src(func(inv workload.Invocation) bool {
			*n++
			return yield(inv)
		})
	}
}

func warmOptions(seed int64, o *obs.Obs) faassched.ClusterOptions {
	return faassched.ClusterOptions{
		Servers:        warmServers,
		CoresPerServer: warmCores,
		Dispatch:       faassched.DispatchLeastLoaded,
		Scheduler:      faassched.SchedulerHybrid,
		Seed:           seed,
		ColdStart:      warmColdStart,
		Workers:        warmWorkers,
		Obs:            o,
	}
}

func runWarm(in *input, h runHooks) (*simOut, error) {
	var n int
	rep, err := faassched.SimulateShardedReplay(warmOptions(in.seed, h.obs), countSource(h.source(in.src), &n))
	if err != nil {
		return nil, err
	}
	tot := rep.Total()
	out, err := accOut(n, rep.Invocations, tot)
	if err != nil {
		return nil, err
	}
	out.ServerSeconds = float64(rep.Servers) * rep.Makespan.Seconds()
	shardSum := 0
	for _, s := range rep.PerShard {
		shardSum += s.Invocations
	}
	if shardSum != rep.Invocations {
		return nil, fmt.Errorf("shards hold %d invocations, router routed %d", shardSum, rep.Invocations)
	}
	out.Sim["policy.preemptions_per_inv.hybrid"] = ratio(tot.TotalPreemptions(), n)
	d := newDigest()
	d.acc(tot)
	for i := 0; i < rep.WindowCount(); i++ {
		d.acc(rep.Window(i))
	}
	d.i64(int64(rep.Invocations), int64(rep.Makespan), int64(rep.KernelEvents),
		rep.Ghost.Delivered, rep.Ghost.Commits, rep.Ghost.Failed, rep.Ghost.Ticks, rep.Ghost.TicksElided, rep.Ghost.Migrations)
	for _, s := range rep.PerShard {
		d.i64(int64(s.Servers), int64(s.Invocations), int64(s.Events))
	}
	out.Digest = d.sum()
	return out, nil
}

func elasticOptions(seed int64, o *obs.Obs) faassched.AutoscaleOptions {
	return faassched.AutoscaleOptions{
		MinServers:     elasticMin,
		MaxServers:     elasticMax,
		CoresPerServer: elasticCores,
		Dispatch:       faassched.DispatchLeastLoaded,
		Scheduler:      faassched.SchedulerHybrid,
		Seed:           seed,
		ScalePolicy:    faassched.ScaleTargetUtilization,
		SpinUp:         30 * time.Second,
		Faults:         elasticFaults,
		Obs:            o,
	}
}

func runElastic(in *input, h runHooks) (*simOut, error) {
	var n int
	st, err := faassched.SimulateAutoscaled(elasticOptions(in.seed, h.obs), countSource(h.source(in.src), &n))
	if err != nil {
		return nil, err
	}
	tot := st.Total()
	out, err := accOut(n, st.Completed+st.Failed, tot)
	if err != nil {
		return nil, err
	}
	if st.Completed != tot.Completed() || st.Failed != tot.FailedCount() {
		return nil, fmt.Errorf("autoscaler reports %d+%d retired, sinks hold %d+%d",
			st.Completed, st.Failed, tot.Completed(), tot.FailedCount())
	}
	out.ServerSeconds = st.ServerSeconds
	out.Sim["policy.preemptions_per_inv.hybrid"] = ratio(tot.TotalPreemptions(), n)
	out.Sim["autoscale.mean_servers"] = st.MeanServers()
	out.Sim["autoscale.peak_servers"] = float64(st.PeakServers)
	out.Sim["faults.retry_amplification"] = tot.RetryAmplification()
	out.Sim["faults.kills_per_inv"] = ratio(int(st.Faults.Kills), n)
	out.Sim["faults.giveups"] = float64(tot.GiveUps())
	out.Sim["faults.wasted_cpu_frac"] = ratioD(tot.WastedCPU(), tot.TotalExecution()+tot.WastedCPU())
	d := newDigest()
	d.acc(tot)
	for i := 0; i < st.WindowCount(); i++ {
		d.acc(st.Window(i))
	}
	d.i64(int64(st.Makespan), int64(st.Preemptions), int64(st.PeakServers), int64(st.Launched),
		int64(st.Drained), int64(st.Crashed), st.Faults.Crashes, st.Faults.Kills, st.Faults.Retries,
		st.Faults.GiveUps, int64(len(st.Events)))
	d.f64(st.ServerSeconds, st.CostUSD)
	for _, e := range st.Events {
		d.i64(int64(e.Time), int64(e.Kind), int64(e.Server), int64(e.Active))
	}
	out.Digest = d.sum()
	return out, nil
}

// accOut derives the common fleet figures from a whole-run accumulator
// and checks conservation: every generated invocation was routed and
// retired exactly once.
func accOut(generated, routed int, tot *metrics.Accumulator) (*simOut, error) {
	if routed != generated {
		return nil, fmt.Errorf("engine routed %d invocations, source yielded %d", routed, generated)
	}
	if got := tot.Completed() + tot.FailedCount(); got != generated {
		return nil, fmt.Errorf("completed %d + failed %d = %d, want %d generated",
			tot.Completed(), tot.FailedCount(), got, generated)
	}
	execP99, err := tot.P99(metrics.Execution)
	if err != nil {
		return nil, err
	}
	respP99, err := tot.P99(metrics.Response)
	if err != nil {
		return nil, err
	}
	return &simOut{
		Generated: generated,
		CostUSD:   tot.Cost(),
		ExecP99S:  execP99,
		RespP99S:  respP99,
		Goodput:   tot.Goodput(),
		Sim:       map[string]float64{},
	}, nil
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

func ratioD(a, b time.Duration) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// digest is an FNV-1a hash over the simulated output, bit-exact for floats.
type digest struct{ h hash.Hash64 }

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) i64(vs ...int64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		d.h.Write(b[:])
	}
}

func (d *digest) f64(vs ...float64) {
	for _, v := range vs {
		d.i64(int64(math.Float64bits(v)))
	}
}

func (d *digest) set(s *metrics.Set) {
	for _, r := range s.Records {
		d.i64(int64(r.ID), int64(r.Arrival), int64(r.FirstRun), int64(r.Finish), int64(r.CPU),
			int64(r.Preemptions), int64(r.MemMB), int64(r.FibN), int64(r.ColdStart),
			b2i(r.Failed), int64(r.Attempts), b2i(r.GiveUp), int64(r.Wasted))
		d.h.Write([]byte(r.Label))
	}
}

var quantiles = []float64{0.5, 0.9, 0.99, 0.999}

func (d *digest) acc(a *metrics.Accumulator) {
	d.i64(int64(a.Completed()), int64(a.FailedCount()), int64(a.TotalPreemptions()),
		int64(a.TotalExecution()), int64(a.ColdStarts()), int64(a.TotalColdStart()),
		int64(a.WastedCPU()), int64(a.GiveUps()))
	d.f64(a.Cost(), a.RetryAmplification())
	if a.Completed() == 0 {
		return
	}
	for _, m := range []metrics.Metric{metrics.Execution, metrics.Response, metrics.Turnaround} {
		for _, q := range quantiles {
			v, err := a.Quantile(m, q)
			if err != nil {
				v = math.NaN()
			}
			d.f64(v)
		}
	}
}

func (d *digest) sum() string { return fmt.Sprintf("%016x", d.h.Sum64()) }

func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
