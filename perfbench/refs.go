package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
)

// refs.json holds, per size, workload, seed and window, the digest and
// simulated figures of a run the benchmark accepted. A run on a recorded seed must
// reproduce them bit for bit: a change that claims only host speed may
// not move what the simulator computes. Rewrite it with --record-refs
// only for a change that alters the simulation on purpose.
//
//go:embed refs.json
var refsJSON []byte

type reference struct {
	Digest  string             `json:"digest"`
	Figures map[string]float64 `json:"figures"`
}

// refTable is size -> workload -> seed -> one reference per window.
type refTable map[string]map[string]map[string][]reference

// loadRefs decodes the embedded references.
func loadRefs() refTable {
	all := refTable{}
	if err := json.Unmarshal(refsJSON, &all); err != nil {
		panic(fmt.Sprintf("perfbench: embedded refs.json: %v", err)) // the file is compiled in
	}
	return all
}

// checkRef compares out with the recorded reference for its workload,
// seed and window, if one is recorded.
func checkRef(size, workload string, seed int64, window int, out *simOut) error {
	refs, ok := loadRefs()[size][workload][strconv.FormatInt(seed, 10)]
	if !ok {
		return nil
	}
	if window >= len(refs) {
		return fmt.Errorf("window %d of %d recorded", window, len(refs))
	}
	ref := refs[window]
	if out.Digest != ref.Digest {
		return fmt.Errorf("output digest %s, reference %s", out.Digest, ref.Digest)
	}
	got := simFigures(out)
	for _, k := range sortedKeys(ref.Figures) {
		if v, ok := got[k]; !ok || v != ref.Figures[k] {
			return fmt.Errorf("%s = %v, reference %v", k, got[k], ref.Figures[k])
		}
	}
	if len(got) != len(ref.Figures) {
		return fmt.Errorf("%d simulated figures, reference has %d", len(got), len(ref.Figures))
	}
	return nil
}

// simFigures flattens a run's simulated figures by metric name.
func simFigures(o *simOut) map[string]float64 {
	f := map[string]float64{
		"sim_cost_usd":       o.CostUSD,
		"sim_exec_p99_s":     o.ExecP99S,
		"sim_resp_p99_s":     o.RespP99S,
		"sim_goodput":        o.Goodput,
		"sim_server_s":       o.ServerSeconds,
		"sim_cfs_cost_ratio": o.CFSCostRatio,
		"sim_invocations":    float64(o.Generated),
	}
	for k, v := range o.Sim {
		f[k] = v
	}
	return f
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
