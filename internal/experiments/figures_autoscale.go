package experiments

import (
	"fmt"
	"strings"
	"time"

	"github.com/faassched/faassched/internal/autoscale"
	"github.com/faassched/faassched/internal/cluster"
	"github.com/faassched/faassched/internal/core"
	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/pricing"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/workload"
)

// Autoscale sizing: the per-server machine is deliberately smaller than
// the single-enclave experiments' box so the diurnal swing actually
// forces the fleet to move; Min covers the overnight trough, Max the
// daily peak with headroom. The "fixed" baseline provisions Max around
// the clock — the capacity a fixed fleet must buy to survive the peak —
// so the server-seconds column is exactly the money elasticity saves.
const (
	quickASCores = 4
	fullASCores  = 8
)

// autoscaleBounds resolves the fleet bounds and spin-up latency. A floor
// override that exceeds the resolved cap is rejected rather than clamped:
// silently pinning min=max would make every "elastic" row a fixed fleet.
func (e *Env) autoscaleBounds() (min, max int, spin time.Duration, err error) {
	switch e.Scale {
	case ScaleFullScale:
		min, max = 4, 24
	case ScaleFull:
		min, max = 2, 12
	default:
		min, max = 1, 4
	}
	if e.AutoscaleMin > 0 {
		min = e.AutoscaleMin
	}
	if e.AutoscaleMax > 0 {
		max = e.AutoscaleMax
	}
	if max < min {
		return 0, 0, 0, fmt.Errorf(
			"experiments: autoscale floor %d exceeds cap %d (the %s-scale default; pass -as-max too)",
			min, max, e.Scale)
	}
	spin = e.AutoscaleSpinUp
	if spin == 0 {
		spin = autoscale.DefaultSpinUp
	}
	return min, max, spin, nil
}

// ExtAutoscale is the paper's "scheduler choice costs money" claim at
// fleet scale: each per-server scheduler × scaling policy serves the
// multi-hour diurnal window on an elastic fleet — streaming dispatch,
// spin-up latency, drain-before-retire — and the bill splits into the
// per-invocation execution cost (which the scheduler moves) and the
// server-seconds infrastructure cost (which the scaling policy moves).
// Per-window rows show both costs and the p99s tracking the daily swing;
// the "all" row is the whole-run summary.
func ExtAutoscale(e *Env) (*Figure, error) {
	minS, maxS, spin, err := e.autoscaleBounds()
	if err != nil {
		return nil, err
	}
	src, minutes, err := e.DiurnalSource()
	if err != nil {
		return nil, err
	}
	coresPer := quickASCores
	if e.Scale != ScaleQuick {
		coresPer = fullASCores
	}
	width := e.diurnalWindow()

	schedulers := []struct {
		name string
		mk   func() ghost.Policy
	}{
		{"fifo", e.Baselines()["fifo"]},
		{"cfs", e.Baselines()["cfs"]},
		{"ours", func() ghost.Policy {
			return newHybrid(core.Config{
				FIFOCores: coresPer / 2,
				TimeLimit: core.TimeLimitConfig{Static: core.DefaultStaticLimit},
			})
		}},
	}
	scalings := []struct {
		name     string
		min, max int
		policy   autoscale.ScalePolicy
	}{
		// A pinned Max-sized fleet is the fixed-capacity baseline every
		// elastic run is judged against.
		{"fixed", maxS, maxS, autoscale.PolicyTargetUtilization},
		{"target-util", minS, maxS, autoscale.PolicyTargetUtilization},
		{"queue-depth", minS, maxS, autoscale.PolicyQueueDepth},
	}

	fig := NewFigure("ext-autoscale",
		fmt.Sprintf("Elastic fleet over the diurnal window (%d min): scheduler × scaling policy, per-window cost/latency and server-seconds", minutes),
		"scheduler", "scaling", "window", "n", "p99_resp_ms", "p99_turn_s",
		"exec_cost_usd", "servers_mean", "server_s", "infra_usd")
	serverTariff := pricing.DefaultServer()
	// The 3×3 grid fans across the sweep pool: each scheduler × scaling
	// cell is an independent fleet replay; collation keeps row order.
	type gridCell struct {
		s  int // scheduler index
		sc int // scaling index
	}
	grid := make([]gridCell, 0, len(schedulers)*len(scalings))
	for s := range schedulers {
		for sc := range scalings {
			grid = append(grid, gridCell{s: s, sc: sc})
		}
	}
	err = e.Sweep(fig, len(grid), func(i int, c *Cell) error {
		s, sc := schedulers[grid[i].s], scalings[grid[i].sc]
		win, res, err := e.runAutoscaled(s.mk, sc.min, sc.max, sc.policy, spin, coresPer, width, src)
		if err != nil {
			return fmt.Errorf("ext-autoscale %s/%s: %w", s.name, sc.name, err)
		}
		// An idle or all-failed tail still gets its per-window rows.
		win.EnsureWindows(horizonWindows(minutes, width))
		for w := 0; w < win.Windows(); w++ {
			wa := win.Window(w)
			lo, hi := time.Duration(w)*width, time.Duration(w+1)*width
			ss := res.ServerSecondsIn(lo, hi)
			c.AddRow(s.name, sc.name, fmt.Sprintf("w%d", w),
				fmt.Sprintf("%d", wa.Completed()),
				accQuantile(wa, metrics.Response, 0.99),
				accP99Sec(wa, metrics.Turnaround),
				fmtUSD(wa.Cost()),
				fmt.Sprintf("%.2f", ss/width.Seconds()),
				fmt.Sprintf("%.0f", ss),
				fmtUSD(serverTariff.Cost(ss)))
		}
		total := win.Total()
		c.AddRow(s.name, sc.name, "all",
			fmt.Sprintf("%d", total.Completed()),
			accQuantile(total, metrics.Response, 0.99),
			accP99Sec(total, metrics.Turnaround),
			fmtUSD(total.Cost()),
			fmt.Sprintf("%.2f", res.MeanServers()),
			fmt.Sprintf("%.0f", res.ServerSeconds),
			fmtUSD(serverTariff.Cost(res.ServerSeconds)))
		c.Note("%s/%s fleet: %s | peak=%d launched=%d drained=%d | fleet@%v edges: %s | agent ticks: %s",
			s.name, sc.name, res.Timeline(10), res.PeakServers, res.Launched(), res.Drained(),
			width, fleetAtEdges(res, width, win.Windows()), tickNote(res.Stats.Ticks, res.Stats.TicksElided))
		return nil
	})
	if err != nil {
		return nil, err
	}
	fig.Note("elastic fleet: %d..%d servers × %d cores, %v spin-up, drain-before-retire; dispatch=%s", minS, maxS, coresPer, spin, cluster.DispatchLeastLoaded)
	fig.Note("exec_cost bills invocations (Lambda tariff); infra bills server uptime at $%.3f/h — the fixed row's infra is what elasticity saves", serverTariff.HourlyUSD)
	fig.Note("horizon %d min of the 1440-min diurnal cycle (scale=%s, override with -minutes); windows of %v by completion time", minutes, e.Scale, width)
	return fig, nil
}

// runAutoscaled executes one scheduler × scaling-policy cell through the
// shared windowed wiring (autoscale.RunWindowed).
func (e *Env) runAutoscaled(mk func() ghost.Policy, min, max int, policy autoscale.ScalePolicy,
	spin time.Duration, coresPer int, width time.Duration, src workload.Source) (*metrics.WindowedAccumulator, *autoscale.Result, error) {
	return autoscale.RunWindowed(autoscale.Config{
		Min: min, Max: max,
		Policy: policy,
		SpinUp: spin,
		Seed:   e.Seed,
		Kernel: simkern.DefaultConfig(coresPer),
		Sched:  mk,
	}, src, e.Tariff, width)
}

// fleetAtEdges samples the billed fleet size at each window boundary.
func fleetAtEdges(res *autoscale.Result, width time.Duration, windows int) string {
	sizes := make([]string, 0, windows+1)
	for w := 0; w <= windows; w++ {
		sizes = append(sizes, fmt.Sprintf("%d", res.ActiveAt(time.Duration(w)*width)))
	}
	return strings.Join(sizes, "→")
}

// accQuantile renders an accumulator quantile in milliseconds ("-" when
// the window is empty).
func accQuantile(a *metrics.Accumulator, m metrics.Metric, q float64) string {
	if a.Completed() == 0 {
		return "-"
	}
	v, err := a.Quantile(m, q)
	if err != nil {
		return "-"
	}
	return fmt.Sprintf("%.1f", v)
}

// accP99Sec renders an accumulator's p99 in seconds ("-" when empty).
func accP99Sec(a *metrics.Accumulator, m metrics.Metric) string {
	if a.Completed() == 0 {
		return "-"
	}
	v, err := a.P99(m)
	if err != nil {
		return "-"
	}
	return fmtSec(v)
}
