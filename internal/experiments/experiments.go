// Package experiments regenerates every measurement figure and table in
// the paper's evaluation (see DESIGN.md §3 for the experiment index). Each
// experiment is a function from a shared Env to a Figure — a long-format
// table rendered to aligned text or CSV — so the harness binary, the test
// suite, and the benchmarks all share one code path.
//
// Every experiment supports two scales: ScaleFull reproduces the paper's
// parameters (50-core enclave, the 12,442-invocation two-minute Azure
// workload, ten-minute utilization runs), while ScaleQuick shrinks the
// workload and core count so the whole suite runs in seconds in CI.
package experiments

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"github.com/faassched/faassched/internal/core"
	"github.com/faassched/faassched/internal/fib"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/policy/cfs"
	"github.com/faassched/faassched/internal/policy/edf"
	"github.com/faassched/faassched/internal/policy/fifo"
	"github.com/faassched/faassched/internal/policy/las"
	"github.com/faassched/faassched/internal/policy/rr"
	"github.com/faassched/faassched/internal/policy/shinjuku"
	"github.com/faassched/faassched/internal/pricing"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/simrun"
	"github.com/faassched/faassched/internal/stats"
	"github.com/faassched/faassched/internal/trace"
	"github.com/faassched/faassched/internal/workload"
)

// Scale selects experiment sizing.
type Scale int

// Scales.
const (
	// ScaleQuick shrinks workloads and core counts for tests and benches.
	ScaleQuick Scale = iota + 1
	// ScaleFull reproduces the paper's parameters (×100 trace downscale).
	ScaleFull
	// ScaleFullScale is ScaleFull without the paper's ×100 trace
	// downscaling: every derived workload is built at Downscale=1, so the
	// main two-minute window carries ~1.2M invocations.
	ScaleFullScale
)

// String implements fmt.Stringer.
func (s Scale) String() string {
	switch s {
	case ScaleQuick:
		return "quick"
	case ScaleFull:
		return "full"
	case ScaleFullScale:
		return "fullscale"
	default:
		return fmt.Sprintf("Scale(%d)", int(s))
	}
}

// ParseScale parses "quick", "full", or "fullscale".
func ParseScale(s string) (Scale, error) {
	switch strings.ToLower(s) {
	case "quick":
		return ScaleQuick, nil
	case "full":
		return ScaleFull, nil
	case "fullscale":
		return ScaleFullScale, nil
	default:
		return 0, fmt.Errorf("experiments: unknown scale %q (want quick|full|fullscale)", s)
	}
}

// Env is the shared experiment environment: the synthesized trace, the
// derived workloads, and the pricing model. Workload construction is
// cached — every experiment sees identical inputs — and guarded by a
// mutex, so one Env may be shared by experiments running in parallel
// (e.g. t.Parallel subtests).
type Env struct {
	Scale  Scale
	Cores  int
	Seed   int64
	Tariff pricing.Tariff
	Model  fib.DurationModel

	// Downscale divides per-minute trace counts when deriving workloads.
	// Zero means the scale default: 1 at ScaleFullScale, the paper's ×100
	// otherwise.
	Downscale int

	// W2Max / W10Max optionally cap the derived workloads below the scale
	// defaults (the test suite uses them for -short runs). Zero means the
	// scale default.
	W2Max  int
	W10Max int

	// DiurnalMinutes overrides the ext-diurnal/ext-autoscale horizon, in
	// trace minutes (the faasbench -minutes knob). Zero means the scale
	// default: 30 at quick, 360 (6 h) at full, 1440 (24 h) at fullscale.
	DiurnalMinutes int

	// AutoscaleMin / AutoscaleMax override the ext-autoscale fleet bounds
	// (the faasbench -as-min/-as-max knobs). Zero means the scale default.
	AutoscaleMin, AutoscaleMax int
	// AutoscaleSpinUp overrides the server provisioning latency (the
	// faasbench -as-spinup knob). Zero means autoscale.DefaultSpinUp.
	AutoscaleSpinUp time.Duration

	// ColdStartLatency overrides the ext-coldstart instance spin-up
	// latency (the faasbench -coldstart-latency knob). Zero means
	// cluster.DefaultColdStartLatency.
	ColdStartLatency time.Duration
	// ColdKeepAlive pins ext-coldstart to a single keep-alive TTL instead
	// of the default sweep (the faasbench -keepalive knob). Zero means
	// sweep; negative means a single infinite-TTL point.
	ColdKeepAlive time.Duration
	// ColdPoolMB bounds each server's warm-pool memory in ext-coldstart
	// (the faasbench -coldstart-pool-mb knob). Zero means unbounded.
	ColdPoolMB int

	// FaultCrashMTBF / FaultTimeout / FaultMaxAttempts override the
	// ext-faults sweep's fault plan (the faasbench -fault-* knobs). Zero
	// means the experiment defaults (45 s MTBF, 20 s timeout, 3 attempts).
	FaultCrashMTBF   time.Duration
	FaultTimeout     time.Duration
	FaultMaxAttempts int

	// SweepWorkers bounds the parallel sweep runner's worker pool (the
	// faasbench -sweep-workers knob): grid experiments fan independent
	// cells across this many goroutines and collate results in cell-index
	// order, so the rendered figure is identical at any setting. Zero
	// means GOMAXPROCS; one forces the serial path.
	SweepWorkers int

	mu  sync.Mutex
	tr  *trace.Trace
	w2  []workload.Invocation
	w10 []workload.Invocation
	wfs []workload.Invocation // FullScaleW2 cache
}

// Sizing constants.
const (
	fullCores       = 50    // the paper's enclave size
	quickCores      = 8     //
	fullW2Target    = 12442 // the paper's headline invocation count
	quickW2Target   = 2000  // matches the paper's ~2x overload on 8 cores
	quickW10Target  = 4000  //
	fullFCWorkload  = 3100  // microVM launches attempted (wall at ~2978)
	quickFCWorkload = 400   //
)

// NewEnv builds an experiment environment at the given scale.
func NewEnv(scale Scale) *Env {
	cores := quickCores
	if scale == ScaleFull || scale == ScaleFullScale {
		cores = fullCores
	}
	return &Env{
		Scale:  scale,
		Cores:  cores,
		Seed:   1,
		Tariff: pricing.Default(),
		Model:  fib.DefaultModel(),
	}
}

// downscale resolves the effective trace downscale factor.
func (e *Env) downscale() int {
	if e.Downscale > 0 {
		return e.Downscale
	}
	if e.Scale == ScaleFullScale {
		return 1
	}
	return workload.DefaultDownscale
}

// Trace returns the underlying synthetic Azure-calibrated trace (10
// minutes at pre-downscale volume).
func (e *Env) Trace() (*trace.Trace, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.traceLocked()
}

func (e *Env) traceLocked() (*trace.Trace, error) {
	if e.tr != nil {
		return e.tr, nil
	}
	cfg := trace.DefaultConfig()
	cfg.Seed = e.Seed
	cfg.Minutes = 10
	tr, err := trace.Generate(cfg)
	if err != nil {
		return nil, err
	}
	e.tr = tr
	return tr, nil
}

// W2 returns the paper's main workload: the first two minutes of the
// derived trace (12,442 invocations at full scale, ~1.2M at fullscale).
func (e *Env) W2() ([]workload.Invocation, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.w2Locked()
}

func (e *Env) w2Locked() ([]workload.Invocation, error) {
	if e.w2 != nil {
		return e.w2, nil
	}
	tr, err := e.traceLocked()
	if err != nil {
		return nil, err
	}
	invs, err := workload.Builder{Model: e.Model, Downscale: e.downscale()}.Build(tr, 0, 2)
	if err != nil {
		return nil, err
	}
	switch e.Scale {
	case ScaleFull:
		invs = workload.TakeN(invs, fullW2Target)
	case ScaleFullScale:
		// The ×(100/Downscale) analog of the paper's pinned
		// 12,442-invocation window: ~1.24M at the default Downscale=1.
		invs = workload.TakeN(invs, fullW2Target*workload.DefaultDownscale/e.downscale())
	default:
		invs = workload.Sample(invs, quickW2Target)
	}
	if e.W2Max > 0 {
		invs = workload.Sample(invs, e.W2Max)
	}
	e.w2 = invs
	return e.w2, nil
}

// FullScaleW2 is the paper's main two-minute workload rebuilt without
// trace downscaling — always Downscale=1 regardless of Env.Downscale —
// the input of the ext-fullscale experiment. Only ScaleFullScale replays
// all ~1.2M invocations; the other scales build through the ×1 path but
// stride-sample the result (to the paper's 12,442 at full, smaller at
// quick) so `-scale full`'s suite cost is unchanged and the test suite
// stays fast. W2Max caps apply as for W2.
func (e *Env) FullScaleW2() ([]workload.Invocation, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.wfs != nil {
		return e.wfs, nil
	}
	if e.Scale == ScaleFullScale && e.downscale() == 1 {
		// W2 is already the ×1 workload; share the cache.
		return e.w2Locked()
	}
	tr, err := e.traceLocked()
	if err != nil {
		return nil, err
	}
	invs, err := workload.Builder{Model: e.Model, Downscale: 1}.Build(tr, 0, 2)
	if err != nil {
		return nil, err
	}
	invs = workload.TakeN(invs, fullW2Target*workload.DefaultDownscale)
	switch e.Scale {
	case ScaleFull:
		invs = workload.Sample(invs, fullW2Target)
	case ScaleQuick:
		invs = workload.Sample(invs, 2*quickW2Target)
	}
	if e.W2Max > 0 {
		invs = workload.Sample(invs, e.W2Max)
	}
	e.wfs = invs
	return e.wfs, nil
}

// W10 returns the ten-minute workload used by the utilization and
// rightsizing experiments.
func (e *Env) W10() ([]workload.Invocation, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.w10 != nil {
		return e.w10, nil
	}
	tr, err := e.traceLocked()
	if err != nil {
		return nil, err
	}
	minutes := 10
	if e.Scale == ScaleQuick {
		minutes = 4
	}
	invs, err := workload.Builder{Model: e.Model, Downscale: e.downscale()}.Build(tr, 0, minutes)
	if err != nil {
		return nil, err
	}
	if e.Scale == ScaleQuick {
		invs = workload.Sample(invs, quickW10Target)
	}
	if e.W10Max > 0 {
		invs = workload.Sample(invs, e.W10Max)
	}
	e.w10 = invs
	return e.w10, nil
}

// P90Limit returns the 90th percentile of the workload's durations — the
// paper's derivation of its 1,633 ms static limit.
func (e *Env) P90Limit(invs []workload.Invocation) time.Duration {
	vals := make([]float64, 0, len(invs))
	for _, inv := range invs {
		vals = append(vals, float64(inv.Duration))
	}
	p, err := stats.Percentile(vals, 0.90)
	if err != nil {
		return core.DefaultStaticLimit
	}
	return time.Duration(p)
}

// HybridConfig returns the paper's best hybrid configuration for this
// environment: a half/half core split with the static p90 limit.
func (e *Env) HybridConfig(invs []workload.Invocation) core.Config {
	return core.Config{
		FIFOCores: e.Cores / 2,
		TimeLimit: core.TimeLimitConfig{Static: e.P90Limit(invs)},
	}
}

// RunOutput is one scheduler run's artifacts.
type RunOutput struct {
	Kernel *simkern.Kernel
	Set    metrics.Set
	Policy ghost.Policy
}

// RunPolicy executes invs under policy on a fresh kernel and collects
// metrics. recordUtil enables full per-core utilization history.
func (e *Env) RunPolicy(policy ghost.Policy, invs []workload.Invocation, recordUtil bool) (*RunOutput, error) {
	cfg := simkern.DefaultConfig(e.Cores)
	cfg.RecordUtil = recordUtil
	return e.RunPolicyWith(policy, invs, cfg, ghost.Config{})
}

// RunPolicyWith is RunPolicy with explicit kernel and delegation configs —
// the ablation experiments use it to sweep substrate parameters.
func (e *Env) RunPolicyWith(policy ghost.Policy, invs []workload.Invocation, kcfg simkern.Config, gcfg ghost.Config) (*RunOutput, error) {
	k, err := simrun.ExecStats(kcfg, policy, gcfg, simrun.AddTasks(workload.Tasks(invs)), nil)
	if err != nil {
		return nil, err
	}
	return &RunOutput{Kernel: k, Set: metrics.Collect(k), Policy: policy}, nil
}

// Baselines returns fresh policy factories for every baseline scheduler,
// keyed by the names used in the figures.
func (e *Env) Baselines() map[string]func() ghost.Policy {
	return map[string]func() ghost.Policy{
		"fifo":       func() ghost.Policy { return fifo.New(fifo.Config{}) },
		"fifo+100ms": func() ghost.Policy { return fifo.New(fifo.Config{Quantum: 100 * time.Millisecond}) },
		"cfs":        func() ghost.Policy { return cfs.New(cfs.Params{}) },
		"rr":         func() ghost.Policy { return rr.New(rr.Config{}) },
		"edf":        func() ghost.Policy { return edf.New(edf.Config{}) },
		"shinjuku":   func() ghost.Policy { return shinjuku.New(shinjuku.Config{}) },
		"las":        func() ghost.Policy { return las.New(las.Config{}) },
	}
}

// Figure is a rendered experiment result: a long-format table plus notes.
type Figure struct {
	ID      string
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// NewFigure constructs an empty figure.
func NewFigure(id, title string, columns ...string) *Figure {
	return &Figure{ID: id, Title: title, Columns: columns}
}

// AddRow appends one row; it panics on arity mismatch (programmer error).
func (f *Figure) AddRow(vals ...string) {
	if len(vals) != len(f.Columns) {
		panic(fmt.Sprintf("experiments: row arity %d != %d columns in %s",
			len(vals), len(f.Columns), f.ID))
	}
	f.Rows = append(f.Rows, vals)
}

// Note appends a free-text annotation rendered under the table.
func (f *Figure) Note(format string, args ...any) {
	f.Notes = append(f.Notes, fmt.Sprintf(format, args...))
}

// CSV renders the figure as an RFC-4180-ish CSV (no quoting needed: all
// cells are numbers or bare identifiers).
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(f.Columns, ","))
	b.WriteByte('\n')
	for _, row := range f.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Text renders an aligned table with the title and notes.
func (f *Figure) Text() string {
	widths := make([]int, len(f.Columns))
	for i, c := range f.Columns {
		widths[i] = len(c)
	}
	for _, row := range f.Rows {
		for i, cell := range row {
			if len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", f.ID, f.Title)
	writeRow := func(cells []string) {
		for i, cell := range cells {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, cell)
		}
		b.WriteByte('\n')
	}
	writeRow(f.Columns)
	for _, row := range f.Rows {
		writeRow(row)
	}
	for _, n := range f.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// cdfPoints is the number of points a rendered CDF curve carries.
const cdfPoints = 60

// addCDFRows appends a CDF's curve to fig in long format.
func addCDFRows(fig *Figure, series, metric string, c stats.CDF) {
	for _, p := range c.Curve(cdfPoints) {
		fig.AddRow(series, metric, fmt.Sprintf("%.3f", p.X), fmt.Sprintf("%.4f", p.Y))
	}
}

// addMetricCDFs appends all three paper metrics for a run.
func addMetricCDFs(fig *Figure, series string, set metrics.Set) error {
	for _, m := range []metrics.Metric{metrics.Execution, metrics.Response, metrics.Turnaround} {
		c, err := set.CDF(m)
		if err != nil {
			return err
		}
		addCDFRows(fig, series, m.String(), c)
	}
	return nil
}

// fmtUSD renders a dollar amount.
func fmtUSD(v float64) string { return fmt.Sprintf("%.6f", v) }

// fmtSec renders seconds with two decimals (Table I's unit).
func fmtSec(v float64) string { return fmt.Sprintf("%.2f", v) }

// fmtMs renders a duration in milliseconds.
func fmtMs(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d)/float64(time.Millisecond))
}
