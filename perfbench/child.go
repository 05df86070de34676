package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"
	"unsafe"

	"github.com/faassched/faassched/internal/obs"
	"github.com/faassched/faassched/internal/workload"
)

// allocSampleRate is the heap profile's sampling interval in the traced
// run: one sample per 16 KiB allocated on average.
const allocSampleRate = 16 << 10

// runChild runs one child in this process. "rep" is a timed, untraced
// run of one window; "profile" is the traced run of every window (obs
// counters, source spans, CPU and heap profiles); "layers" times the
// benchmark's own calls into single layers on every window.
//
// Children run on one core (GOMAXPROCS 1). The workloads' goroutines
// (shard workers, the autoscaler's servers) still run and synchronize,
// but their parallel speed-up is not measured: on a shared 2-core host
// the second core's speed follows the neighbours' load, which moved
// throughput by 15-25% between runs of the same input, against 3-8% on
// one core.
func runChild(o options, w workloadDef) (*rep, error) {
	runtime.GOMAXPROCS(1)
	if o.child == "profile" {
		runtime.MemProfileRate = allocSampleRate
	}
	sh := shapes[o.size][w.name]
	r := &rep{}
	if o.child == "rep" {
		in, err := setupRepeated(w, o, sh, r)
		if err == nil {
			err = timedRun(o, w, in, r)
		}
		return r, err
	}
	sp := newSpans()
	var err error
	ins := make([]*input, sh.windows)
	for i := range ins {
		start := time.Now()
		var st setupTimes
		if ins[i], st, err = w.setup(o.seed, i, sh); err != nil {
			return nil, fmt.Errorf("%s window %d set-up: %w", w.name, i, err)
		}
		sp.setup(start, st)
		r.GenerateS += st.generate.Seconds() / float64(sh.windows)
		r.BuildS += st.build.Seconds() / float64(sh.windows)
	}
	if o.child == "profile" {
		err = profileRun(o, w, ins, r, sp)
	} else {
		err = layerRun(o, w, ins, r, sp)
	}
	if err != nil {
		return nil, err
	}
	return r, sp.write(filepath.Join(o.out, fmt.Sprintf("%s-seed%d-%s-spans.json", w.name, o.seed, o.child)))
}

// setupRepeated runs the set-up of window o.window setupReps times, keeps
// the last input, and records in r the median CPU time of a set-up.
func setupRepeated(w workloadDef, o options, sh shape, r *rep) (*input, error) {
	var in *input
	total := make([]float64, setupReps)
	for i := range total {
		var err error
		start := processCPU()
		if in, _, err = w.setup(o.seed, o.window, sh); err != nil {
			return nil, fmt.Errorf("%s window %d set-up: %w", w.name, o.window, err)
		}
		total[i] = processCPU() - start
	}
	r.SetupS = median(total)
	return in, nil
}

// verify checks a finished run's output: finite figures, and equality
// with the recorded reference for its seed and window.
func verify(o options, w workloadDef, window int, out *simOut) error {
	for k, v := range simFigures(out) {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s is %v", k, v)
		}
	}
	if !o.checkRefs {
		return nil
	}
	return checkRef(o.size, w.name, o.seed, window, out)
}

var cpuClasses = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readCPU() []float64 {
	s := make([]rtmetrics.Sample, len(cpuClasses))
	for i, n := range cpuClasses {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	out := make([]float64, len(s))
	for i := range s {
		if s[i].Value.Kind() == rtmetrics.KindFloat64 {
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// processCPU is the CPU time the process has used, user and system, on
// every thread, to the nanosecond (CLOCK_PROCESS_CPUTIME_ID). The kernel
// leaves out the time its threads waited for a core.
func processCPU() float64 {
	const clockProcessCPUTimeID = 2
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockProcessCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		panic(fmt.Sprintf("clock_gettime(CLOCK_PROCESS_CPUTIME_ID): %v", errno))
	}
	return time.Duration(ts.Nano()).Seconds()
}

// timedRun is one untraced repetition: wall and CPU time, heap
// allocations, peak RSS and the runtime's GC CPU share around the facade
// call.
func timedRun(o options, w workloadDef, in *input, r *rep) error {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := readCPU()
	start, proc0 := time.Now(), processCPU()
	out, err := w.run(in, runHooks{})
	r.WallS, r.CPUS = time.Since(start).Seconds(), processCPU()-proc0
	cpu1 := readCPU()
	runtime.ReadMemStats(&m1)
	if err != nil {
		r.Err = err.Error()
		return nil
	}
	r.Mallocs = m1.Mallocs - m0.Mallocs
	r.AllocB = m1.TotalAlloc - m0.TotalAlloc
	r.PeakRSSMB = obs.PeakRSSMB()
	if busy := (cpu1[1] - cpu0[1]) - (cpu1[2] - cpu0[2]); busy > 0 {
		r.GCCPUFrac = (cpu1[0] - cpu0[0]) / busy
	}
	r.Invs = out.Generated
	r.Outs = []*simOut{out}
	if err := verify(o, w, o.window, out); err != nil {
		r.Err = err.Error()
	}
	return nil
}

// pullTimer wraps the source the benchmark hands the facade and measures
// its self time: time inside the source minus time spent downstream in
// the consumer.
type pullTimer struct{ self time.Duration }

func (p *pullTimer) wrap(src workload.Source) workload.Source {
	return func(yield func(workload.Invocation) bool) {
		start := time.Now()
		var downstream time.Duration
		src(func(inv workload.Invocation) bool {
			t := time.Now()
			ok := yield(inv)
			downstream += time.Since(t)
			return ok
		})
		p.self += time.Since(start) - downstream
	}
}

// goroutineSampler records the peak goroutine count, sampled from outside
// the simulator every millisecond until stopped.
type goroutineSampler struct {
	stop chan struct{}
	wg   sync.WaitGroup
	peak int
}

func startGoroutineSampler() *goroutineSampler {
	g := &goroutineSampler{stop: make(chan struct{}), peak: runtime.NumGoroutine()}
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-g.stop:
				return
			case <-t.C:
				if n := runtime.NumGoroutine(); n > g.peak {
					g.peak = n
				}
			}
		}
	}()
	return g
}

// halt stops the sampler and returns the peak, excluding the sampler.
func (g *goroutineSampler) halt() int {
	close(g.stop)
	g.wg.Wait()
	return g.peak - 1
}

// profileRun is the traced run: the same facade calls as timedRun, one
// per window, with the obs counter registry threaded through the options,
// the source wrapped by a pull timer, and CPU and heap profiles of the
// runs (set-up excluded) grouped by module.
func profileRun(o options, w workloadDef, ins []*input, r *rep, sp *spans) error {
	reg := obs.NewRegistry()
	pull := &pullTimer{}
	hooks := runHooks{obs: &obs.Obs{Counters: reg}, wrap: pull.wrap}
	runtime.GC()
	gs := startGoroutineSampler()
	var cpuProf bytes.Buffer
	if err := pprof.StartCPUProfile(&cpuProf); err != nil {
		return err
	}
	for i, in := range ins {
		start := time.Now()
		out, err := w.run(in, hooks)
		end := time.Now()
		sp.add("run", "", start, end)
		r.WallS += end.Sub(start).Seconds()
		if err == nil {
			err = verify(o, w, i, out)
		}
		if err != nil && r.Err == "" {
			r.Err = fmt.Sprintf("window %d: %v", i, err)
		}
		if out != nil {
			r.Invs += out.Generated
		}
		r.Outs = append(r.Outs, out)
	}
	pprof.StopCPUProfile()
	peakG := gs.halt()

	runtime.GC() // publishes the heap profile of the runs
	allocW, records := allocsByModule(runtime.MemProfileRate)
	cpuW, samples, err := cpuByModule(cpuProf.Bytes())
	if err != nil {
		return err
	}
	r.Layer = map[string]float64{
		"workload.pull_s":           pull.self.Seconds(),
		"autoscale.goroutines_peak": float64(peakG),
		"profile.cpu_samples":       float64(samples),
		"profile.alloc_records":     float64(records),
	}
	for m, v := range shares(cpuW) {
		r.Layer["cpu."+m] = v
	}
	for m, v := range shares(allocW) {
		r.Layer["alloc."+m] = v
	}
	counters := reg.Dump()
	for k, v := range counters {
		r.Layer["reg."+k] = v
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return err
	}
	base := filepath.Join(o.out, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	if err := os.WriteFile(base+"-cpu.pprof", cpuProf.Bytes(), 0o644); err != nil {
		return err
	}
	data, err := json.MarshalIndent(counters, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(base+"-counters.json", append(data, '\n'), 0o644)
}

// spans records the benchmark's own spans around its calls into layers,
// in memory, and writes them out when the child ends.
type spans struct {
	t0   time.Time
	list []span
}

type span struct {
	Name   string  `json:"name"`
	Parent string  `json:"parent,omitempty"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func newSpans() *spans { return &spans{t0: time.Now()} }

// setup records one set-up and its two layers.
func (s *spans) setup(start time.Time, st setupTimes) {
	s.add("setup", "", start, start.Add(st.generate+st.build))
	s.add("trace.generate", "setup", start, start.Add(st.generate))
	s.add("workload.build", "setup", start.Add(st.generate), start.Add(st.generate+st.build))
}

func (s *spans) add(name, parent string, start, end time.Time) {
	s.list = append(s.list, span{Name: name, Parent: parent, Start: start.Sub(s.t0).Seconds(), End: end.Sub(s.t0).Seconds()})
}

// total sums the durations of every span named name.
func (s *spans) total(name string) float64 {
	t := 0.0
	for _, x := range s.list {
		if x.Name == name {
			t += x.End - x.Start
		}
	}
	return t
}

func (s *spans) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(s.list, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
