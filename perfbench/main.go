// Command perfbench is the repository benchmark. It runs one named
// workload through the simulator's public facade for a fixed time, checks
// every run's simulated output, and prints the result as one JSON line:
// every end-to-end metric with --trace 0, every per-layer metric with
// --trace 1 (BENCHMARK.json at the repository root names them all).
//
// Run it from the repository root:
//
//	bash perfbench/run.sh --workload fleet-warm --seed 1 --seconds 20 --trace 0
//
// A run replays several trace windows derived from the seed. Each timed
// repetition is a child process that runs one window of that workload
// only, so peak RSS is the workload's own; a round runs every window
// once, and rounds repeat until --seconds have passed (at least two).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	minRounds = 2
	setupReps = 5 // set-ups per repetition; setup_s is their median
	// budget caps a whole benchmark invocation well under the 180 s a
	// run may take, whatever --seconds says.
	budget = 150 * time.Second
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	size      string
	out       string
	child     string
	window    int
	checkRefs bool
	record    string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run (server-paper, fleet-warm, elastic-faults)")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: the inputs are generated from it")
	flag.IntVar(&o.seconds, "seconds", 20, "how long to measure")
	flag.IntVar(&o.trace, "trace", 0, "1 runs the traced run and prints the per-layer metrics")
	flag.StringVar(&o.size, "size", "full", "workload size: full (the benchmark) or smoke (self-test only)")
	flag.StringVar(&o.out, "out", filepath.Join(".bench_build", "trace"), "directory for the traced run's profiles and spans")
	flag.StringVar(&o.child, "child", "", "internal: run one child (rep, profile or layers) and print its report as JSON")
	flag.IntVar(&o.window, "window", 0, "internal: the window a rep child runs")
	flag.BoolVar(&o.checkRefs, "check-refs", true, "internal: compare outputs with the recorded references")
	flag.StringVar(&o.record, "record-refs", "", "comma-separated seeds: rerun every workload on them and rewrite perfbench/refs.json")
	flag.Parse()
	if err := run(o); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(o options) error {
	if _, ok := shapes[o.size]; !ok {
		return fmt.Errorf("unknown size %q", o.size)
	}
	if o.record != "" {
		return recordRefs(o)
	}
	w, err := findWorkload(o.workload)
	if err != nil {
		return err
	}
	switch o.child {
	case "":
	case "rep", "profile", "layers":
		r, err := runChild(o, w)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(r)
	default:
		return fmt.Errorf("unknown child mode %q", o.child)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", o.trace)
	}
	if o.seconds < 1 {
		return fmt.Errorf("--seconds must be >= 1, got %d", o.seconds)
	}
	var res *result
	if o.trace == 1 {
		res, err = traced(o)
	} else {
		res, err = measure(o)
	}
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// rep is one child process's report, or several aggregated.
type rep struct {
	// Err is set when the run's output failed a correctness check.
	Err       string  `json:"err,omitempty"`
	WallS     float64 `json:"wall_s"`
	CPUS      float64 `json:"cpu_s"` // process CPU time of the timed run
	SetupS    float64 `json:"setup_s"`
	GenerateS float64 `json:"generate_s"`
	BuildS    float64 `json:"build_s"`
	Invs      int     `json:"invocations"`
	Mallocs   uint64  `json:"mallocs"`
	AllocB    uint64  `json:"alloc_bytes"`
	PeakRSSMB float64 `json:"peak_rss_mb"`
	GCCPUFrac float64 `json:"gc_cpu_frac"`
	// Outs holds the simulated output of each window the child ran.
	Outs []*simOut `json:"outs"`
	// Layer holds the traced children's per-layer measurements.
	Layer map[string]float64 `json:"layer,omitempty"`
}

// spawn runs this binary as a child and decodes its report. The child's
// stderr passes through.
func spawn(ctx context.Context, o options, mode string, window int) (*rep, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{
		"--child", mode, "--workload", o.workload, "--seed", strconv.FormatInt(o.seed, 10),
		"--size", o.size, "--out", o.out, "--check-refs=" + strconv.FormatBool(o.checkRefs),
		"--window", strconv.Itoa(window),
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %w", mode, err)
	}
	var r rep
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("%s child: bad report: %w", mode, err)
	}
	if r.Err == "" && len(r.Outs) == 0 && mode != "layers" {
		return nil, fmt.Errorf("%s child: report without output", mode)
	}
	return &r, nil
}

// round runs every window of the workload once, one rep child each. It
// returns the children's reports and their aggregate: summed time,
// invocations and allocations. first holds each window's output from the
// first round, which every later round must reproduce.
func round(ctx context.Context, o options, windows int, first []*simOut, res *result) (*rep, []*rep, error) {
	agg := &rep{}
	var children []*rep
	var failed error
	for i := 0; i < windows; i++ {
		res.Attempted++
		r, err := spawn(ctx, o, "rep", i)
		if err == nil && r.Err != "" {
			err = errors.New(r.Err)
		}
		if err == nil && first[i] != nil {
			err = sameOutput([]*simOut{first[i]}, r.Outs)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d window %d failed its check: %v\n", o.workload, o.seed, i, err)
			res.Failed++
			failed = err
			continue
		}
		if first[i] == nil {
			first[i] = r.Outs[0]
		}
		agg.WallS += r.WallS
		agg.CPUS += r.CPUS
		agg.Invs += r.Invs
		agg.Mallocs += r.Mallocs
		agg.AllocB += r.AllocB
		agg.GCCPUFrac += r.GCCPUFrac * r.WallS
		agg.Outs = append(agg.Outs, r.Outs...)
		children = append(children, r)
	}
	if failed != nil {
		return nil, nil, failed
	}
	agg.GCCPUFrac /= agg.WallS
	return agg, children, nil
}

// measure is the untraced run: rounds until --seconds have passed, over
// the rounds whose every window checked out. Throughput and allocations
// per invocation are medians over the rounds' totals; set-up time and
// memory are medians over every child of those rounds; the simulated
// figures, identical in every round, are means over windows.
//
// Throughput divides by the children's CPU time, not their wall time. On
// a shared host a child waits for a core whenever other processes take
// it: with three children of the same input on a 2-core host, wall-time
// throughput fell by a third, while throughput per CPU second, which
// leaves the waiting out, stayed within 2% of a child running alone.
func measure(o options) (*result, error) {
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	deadline := start.Add(time.Duration(o.seconds) * time.Second)
	windows := shapes[o.size][o.workload].windows
	first := make([]*simOut, windows)
	res := &result{Metrics: map[string]metric{}}
	var rounds []*rep
	var children []*rep
	for n := 0; n < minRounds || time.Now().Before(deadline); n++ {
		// Stop early rather than let one more round overrun the budget.
		if n > 0 && time.Since(start)*time.Duration(n+1)/time.Duration(n) > budget*9/10 {
			break
		}
		agg, reps, err := round(ctx, o, windows, first, res)
		if ctx.Err() != nil {
			break
		}
		if err == nil {
			rounds = append(rounds, agg)
			children = append(children, reps...)
		}
	}
	if len(rounds) == 0 {
		return nil, fmt.Errorf("%s: no round passed its checks (%d of %d repetitions failed)", o.workload, res.Failed, res.Attempted)
	}
	res.Correct = res.Failed == 0
	values := func(reps []*rep, f func(*rep) float64) []float64 {
		vs := make([]float64, len(reps))
		for i, r := range reps {
			vs[i] = f(r)
		}
		return vs
	}
	medianOf := func(reps []*rep, f func(*rep) float64) float64 { return quantile(values(reps, f), 0.5) }
	figures := meanFigures(rounds[0].Outs)
	for _, m := range endToEnd {
		var v float64
		switch m.name {
		case "inv_per_s":
			v = medianOf(rounds, func(r *rep) float64 { return float64(r.Invs) / r.CPUS })
		case "setup_s":
			v = medianOf(children, func(r *rep) float64 { return r.SetupS })
		case "peak_rss_mb":
			v = medianOf(children, func(r *rep) float64 { return r.PeakRSSMB })
		case "allocs_per_inv":
			v = medianOf(rounds, func(r *rep) float64 { return float64(r.Mallocs) / float64(r.Invs) })
		case "alloc_bytes_per_inv":
			v = medianOf(rounds, func(r *rep) float64 { return float64(r.AllocB) / float64(r.Invs) })
		default:
			x, ok := figures[m.name]
			if !ok {
				return nil, fmt.Errorf("no measurement for end-to-end metric %q", m.name)
			}
			v = x
		}
		res.Metrics[m.name] = metric{Value: v, Unit: m.unit}
	}
	return res, nil
}

// sameOutput checks that two runs of the same windows simulated the same
// thing, bit for bit.
func sameOutput(a, b []*simOut) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d window outputs, want %d", len(b), len(a))
	}
	for i := range a {
		if a[i] == nil || b[i] == nil {
			return fmt.Errorf("window %d has no output", i)
		}
		if a[i].Digest != b[i].Digest {
			return fmt.Errorf("window %d: output digest %s, want %s", i, b[i].Digest, a[i].Digest)
		}
		fa, fb := simFigures(a[i]), simFigures(b[i])
		for k, v := range fa {
			if w, ok := fb[k]; !ok || w != v {
				return fmt.Errorf("window %d: %s = %v, want %v", i, k, fb[k], v)
			}
		}
	}
	return nil
}

// quantile interpolates linearly between the order statistics of vs.
func quantile(vs []float64, q float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(vs []float64) float64 { return quantile(vs, 0.5) }

// recordRefs reruns every workload once per seed and rewrites the
// reference file the correctness check compares against.
func recordRefs(o options) error {
	var seeds []int64
	for _, f := range strings.Split(o.record, ",") {
		s, err := strconv.ParseInt(strings.TrimSpace(f), 10, 64)
		if err != nil {
			return fmt.Errorf("--record-refs: %w", err)
		}
		seeds = append(seeds, s)
	}
	all := loadRefs()
	if all[o.size] == nil {
		all[o.size] = map[string]map[string][]reference{}
	}
	for _, w := range workloads {
		if all[o.size][w.name] == nil {
			all[o.size][w.name] = map[string][]reference{}
		}
		for _, seed := range seeds {
			oo := o
			oo.workload, oo.seed, oo.checkRefs = w.name, seed, false
			var refs []reference
			for i := 0; i < shapes[o.size][w.name].windows; i++ {
				r, err := spawn(context.Background(), oo, "rep", i)
				if err != nil {
					return err
				}
				if r.Err != "" {
					return fmt.Errorf("%s seed %d window %d: %s", w.name, seed, i, r.Err)
				}
				refs = append(refs, reference{Digest: r.Outs[0].Digest, Figures: simFigures(r.Outs[0])})
			}
			all[o.size][w.name][strconv.FormatInt(seed, 10)] = refs
			fmt.Fprintf(os.Stderr, "perfbench: recorded %s seed %d\n", w.name, seed)
		}
	}
	data, err := json.MarshalIndent(all, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join("perfbench", "refs.json"), append(data, '\n'), 0o644)
}
