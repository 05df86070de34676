package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// self-test runs it as the benchmark, and the benchmark runs it again
// for its child processes.
func TestMain(m *testing.M) {
	if os.Getenv("PERFBENCH_AS_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readJSON(t *testing.T, path string, v any) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
}

func units(defs []metricDef) map[string]string {
	m := map[string]string{}
	for _, d := range defs {
		m[d.name] = d.unit
	}
	return m
}

// TestBenchmarkFileMatchesProgram holds BENCHMARK.json, the metric
// notes in metrics.json and the program's own metric lists together.
func TestBenchmarkFileMatchesProgram(t *testing.T) {
	var b benchmarkFile
	readJSON(t, filepath.Join("..", "BENCHMARK.json"), &b)
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, have)
	}
	e2e := map[string]string{}
	for _, m := range b.EndToEnd {
		e2e[m.Name] = m.Unit
	}
	layer := map[string]string{}
	for _, m := range b.PerLayer {
		layer[m.Name] = m.Unit
	}
	sameMap(t, "end_to_end", e2e, units(endToEnd))
	sameMap(t, "per_layer", layer, units(perLayer()))

	var notes struct {
		EndToEnd map[string]struct {
			Kind string `json:"kind"`
		} `json:"end_to_end"`
		PerLayer map[string]struct {
			Kind  string   `json:"kind"`
			Moves []string `json:"moves"`
		} `json:"per_layer"`
	}
	readJSON(t, "metrics.json", &notes)
	for name := range e2e {
		if k := notes.EndToEnd[name].Kind; k != "host" && k != "sim" {
			t.Errorf("metrics.json: end-to-end %s has kind %q, want host or sim", name, k)
		}
	}
	for name := range layer {
		n, ok := notes.PerLayer[name]
		if !ok || (n.Kind != "host" && n.Kind != "sim") {
			t.Errorf("metrics.json: per-layer %s missing or without a host/sim kind", name)
			continue
		}
		for _, mv := range n.Moves {
			metric, wl, ok := strings.Cut(mv, "@")
			if _, known := e2e[metric]; !ok || !known || (wl != "all" && !contains(have, wl)) {
				t.Errorf("metrics.json: %s moves %q, want <end-to-end metric>@<workload or all>", name, mv)
			}
		}
	}
	if len(notes.PerLayer) != len(layer) || len(notes.EndToEnd) != len(e2e) {
		t.Errorf("metrics.json describes %d+%d metrics, BENCHMARK.json names %d+%d",
			len(notes.EndToEnd), len(notes.PerLayer), len(e2e), len(layer))
	}
}

func contains(xs []string, x string) bool {
	for _, y := range xs {
		if y == x {
			return true
		}
	}
	return false
}

func sameMap(t *testing.T, what string, got, want map[string]string) {
	t.Helper()
	for k, u := range want {
		if got[k] != u {
			t.Errorf("%s: BENCHMARK.json has %s in %q, the program reports %q", what, k, got[k], u)
		}
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			t.Errorf("%s: BENCHMARK.json names %s, which the program does not report", what, k)
		}
	}
}

// TestPrintsEveryNamedMetric runs the benchmark command on small inputs
// and checks its last line: every named metric, each with its unit, and
// a passing correctness check.
func TestPrintsEveryNamedMetric(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	names := []string{}
	for _, w := range workloads {
		names = append(names, w.name)
	}
	if testing.Short() {
		names = names[1:2]
	}
	for _, name := range names {
		for _, tr := range []string{"0", "1"} {
			t.Run(name+"/trace"+tr, func(t *testing.T) {
				cmd := exec.Command(self, "--workload", name, "--seed", "3", "--seconds", "1",
					"--trace", tr, "--size", "smoke", "--out", t.TempDir())
				cmd.Env = append(os.Environ(), "PERFBENCH_AS_MAIN=1")
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(string(out)), "\n")
				var raw map[string]json.RawMessage
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &raw); err != nil {
					t.Fatalf("last line is not JSON: %v", err)
				}
				var keys []string
				for k := range raw {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				if strings.Join(keys, ",") != "attempted,correct,failed,metrics" {
					t.Fatalf("result keys %v", keys)
				}
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				want := endToEnd
				if tr == "1" {
					want = perLayer()
				}
				got := map[string]string{}
				for k, m := range res.Metrics {
					got[k] = m.Unit
				}
				sameMap(t, "printed metrics", units(want), got)
			})
		}
	}
}

func TestAttribute(t *testing.T) {
	const in = repoPrefix + "/internal/"
	for _, c := range []struct {
		stack []string
		skip  bool
		want  string
	}{
		{[]string{"runtime.mallocgc", in + "simkern.(*Kernel).Run"}, false, "runtime"},
		{[]string{"runtime.mallocgc", in + "simkern.(*Kernel).Run"}, true, "simkern"},
		{[]string{"sort.Slice", in + "metrics.Collect"}, false, "metrics"},
		{[]string{in + "policy/cfs.(*Policy).OnTick.func1"}, false, "policy.cfs"},
		{[]string{in + "core.(*Hybrid).Dispatch"}, false, "policy.core"},
		{[]string{in + "policy/rr.New"}, false, "other"},
		{[]string{repoPrefix + ".Simulate"}, false, "facade"},
		{[]string{"syscall.Syscall"}, false, "other"},
	} {
		if got := attribute(c.stack, c.skip); got != c.want {
			t.Errorf("attribute(%v, %v) = %s, want %s", c.stack, c.skip, got, c.want)
		}
	}
}
