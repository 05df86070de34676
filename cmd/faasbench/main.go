// Command faasbench regenerates the paper's evaluation: every measurement
// figure and table (see DESIGN.md §3 for the index). Results are printed
// as aligned tables and optionally written as CSV files for plotting.
//
// Usage:
//
//	faasbench -experiment all -scale quick
//	faasbench -experiment fig11,table1 -scale full -out results/
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"github.com/faassched/faassched/internal/cliutil"
	"github.com/faassched/faassched/internal/experiments"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "faasbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("faasbench", flag.ContinueOnError)
	var (
		experiment = fs.String("experiment", "all", "comma-separated experiment ids, or 'all' (see -list)")
		scaleFlag  = fs.String("scale", "quick", "experiment scale: quick|full|fullscale (fullscale = no ×100 trace downscaling, ~1.2M invocations)")
		minutes    = fs.Int("minutes", 0, "override the ext-diurnal/ext-autoscale horizon in trace minutes, up to 1440 (0 = scale default)")
		asMin      = fs.Int("as-min", 0, "override the ext-autoscale fleet floor (0 = scale default)")
		asMax      = fs.Int("as-max", 0, "override the ext-autoscale fleet cap (0 = scale default)")
		asSpinUp   = fs.Duration("as-spinup", 0, "override the ext-autoscale server spin-up latency (0 = default 30s)")
		csLatency  = fs.Duration("coldstart-latency", 0, "override the ext-coldstart instance spin-up latency (0 = default 250ms)")
		keepAlive  = fs.Duration("keepalive", 0, "pin ext-coldstart to one keep-alive TTL instead of the sweep (0 = sweep, negative = infinite)")
		csPoolMB   = fs.Int("coldstart-pool-mb", 0, "bound each server's ext-coldstart warm-pool memory in MB (0 = unbounded)")
		faultMTBF  = fs.Duration("fault-crash-mtbf", 0, "override the ext-faults per-server crash MTBF (0 = default 45s)")
		faultTO    = fs.Duration("fault-timeout", 0, "override the ext-faults invocation deadline (0 = default 20s)")
		faultTries = fs.Int("fault-retries", 0, "override the ext-faults retry budget in attempts (0 = default 3)")
		sweepW     = fs.Int("sweep-workers", 0, "bound the parallel sweep runner for grid experiments (0 = GOMAXPROCS, 1 = serial)")
		out        = fs.String("out", "", "directory to write per-experiment CSV files (optional)")
		list       = fs.Bool("list", false, "list experiment ids and exit")
		quiet      = fs.Bool("q", false, "suppress table output (still writes CSVs)")
	)
	obsf := cliutil.RegisterObs(fs)
	if done, err := cliutil.Parse(fs, args, stdout); done || err != nil {
		return err
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Fprintln(stdout, id)
		}
		return nil
	}
	// Validate every argument before any experiment runs, so scripts get a
	// nonzero exit and the full list of valid values up front instead of a
	// failure halfway through a long sweep.
	scale, err := experiments.ParseScale(*scaleFlag)
	if err != nil {
		return err
	}
	if *minutes < 0 || *minutes > 1440 {
		return fmt.Errorf("-minutes %d out of [0, 1440]", *minutes)
	}
	if *asMin < 0 {
		return fmt.Errorf("-as-min %d must be >= 0 (0 = scale default)", *asMin)
	}
	if *asMax < 0 {
		return fmt.Errorf("-as-max %d must be >= 0 (0 = scale default)", *asMax)
	}
	if *asMin > 0 && *asMax > 0 && *asMin > *asMax {
		return fmt.Errorf("-as-min %d exceeds -as-max %d", *asMin, *asMax)
	}
	if *asSpinUp < 0 {
		return fmt.Errorf("-as-spinup %v must be >= 0 (0 = default)", *asSpinUp)
	}
	if *csLatency < 0 {
		return fmt.Errorf("-coldstart-latency %v must be >= 0 (0 = default)", *csLatency)
	}
	if *csPoolMB < 0 {
		return fmt.Errorf("-coldstart-pool-mb %d must be >= 0 (0 = unbounded)", *csPoolMB)
	}
	if *sweepW < 0 {
		return fmt.Errorf("-sweep-workers %d must be >= 0 (0 = GOMAXPROCS)", *sweepW)
	}
	if *faultMTBF < 0 {
		return fmt.Errorf("-fault-crash-mtbf %v must be >= 0 (0 = default)", *faultMTBF)
	}
	if *faultTO < 0 {
		return fmt.Errorf("-fault-timeout %v must be >= 0 (0 = default)", *faultTO)
	}
	if *faultTries < 0 {
		return fmt.Errorf("-fault-retries %d must be >= 0 (0 = default)", *faultTries)
	}
	if err := obsf.Validate(); err != nil {
		return err
	}
	ids := experiments.IDs()
	if *experiment != "all" {
		ids = strings.Split(*experiment, ",")
		for i := range ids {
			ids[i] = strings.TrimSpace(ids[i])
			if _, err := experiments.Lookup(ids[i]); err != nil {
				return err // carries the unknown id and the valid-id list
			}
		}
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
	}

	env := experiments.NewEnv(scale)
	env.DiurnalMinutes = *minutes
	env.AutoscaleMin = *asMin
	env.AutoscaleMax = *asMax
	env.AutoscaleSpinUp = *asSpinUp
	env.ColdStartLatency = *csLatency
	env.ColdKeepAlive = *keepAlive
	env.ColdPoolMB = *csPoolMB
	env.FaultCrashMTBF = *faultMTBF
	env.FaultTimeout = *faultTO
	env.FaultMaxAttempts = *faultTries
	env.SweepWorkers = *sweepW
	rig, err := obsf.Start("faasbench", os.Stderr, 0)
	if err != nil {
		return err
	}
	if rig.Report != nil {
		rig.Report.Mode = scale.String()
	}
	runStart := time.Now()
	fmt.Fprintf(stdout, "# faasbench scale=%s cores=%d experiments=%d\n", scale, env.Cores, len(ids))
	for _, id := range ids {
		start := time.Now()
		fig, err := experiments.Run(env, id)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		// Wall-clock telemetry per experiment: a trace span on the bench
		// lane and a counter-registry gauge feeding the run report.
		elapsed := time.Since(start)
		rig.Obs.Tracer().Span("exp:"+fig.ID, 2, 0, start.Sub(runStart), elapsed)
		if reg := rig.Obs.Registry(); reg != nil {
			reg.Gauge("bench." + fig.ID + ".wall_seconds").Add(elapsed.Seconds())
		}
		if pg := rig.Obs.Progress(); pg != nil {
			pg.Done.Add(1)
		}
		if !*quiet {
			fmt.Fprintln(stdout)
			fmt.Fprint(stdout, fig.Text())
		}
		fmt.Fprintf(stdout, "# %s done in %s (%d rows)\n", fig.ID, elapsed.Round(time.Millisecond), len(fig.Rows))
		if *out != "" {
			path := filepath.Join(*out, fig.ID+".csv")
			if err := os.WriteFile(path, []byte(fig.CSV()), 0o644); err != nil {
				return fmt.Errorf("writing %s: %w", path, err)
			}
		}
	}
	return rig.Finish()
}
