package cfs_test

import (
	"testing"
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/policy/cfs"
	"github.com/faassched/faassched/internal/policy/fifo"
	"github.com/faassched/faassched/internal/policy/policytest"
	"github.com/faassched/faassched/internal/simkern"
)

func TestAllTasksComplete(t *testing.T) {
	p := cfs.New(cfs.Params{})
	w := policytest.Mixed(80, time.Millisecond, 10*time.Millisecond, 300*time.Millisecond)
	policytest.Run(t, 4, p, w)
}

func TestTimeSharingStretchesExecution(t *testing.T) {
	// Two equal 200ms tasks on one core arriving together: CFS interleaves
	// them, so each one's execution time approaches 2× its demand, and they
	// finish close together (fairness). Under FIFO the first would finish
	// at ~200ms with execution ~200ms.
	w := policytest.Uniform(2, 0, 200*time.Millisecond)
	k := policytest.Run(t, 1, cfs.New(cfs.Params{}), w)
	for _, task := range k.Tasks() {
		exec := task.Finish() - task.FirstRun()
		if exec < 300*time.Millisecond {
			t.Errorf("task %d exec %v, want ~2x demand (time sharing)", task.ID, exec)
		}
	}
	a, b := k.Tasks()[0], k.Tasks()[1]
	gap := a.Finish() - b.Finish()
	if gap < 0 {
		gap = -gap
	}
	if gap > 50*time.Millisecond {
		t.Errorf("completion gap %v, want small (fairness)", gap)
	}
	if policytest.TotalPreemptions(k) == 0 {
		t.Error("CFS performed no preemptions while time-sharing")
	}
}

func TestWakeupPreemptionGivesFastResponse(t *testing.T) {
	// Paper Fig 4: CFS achieves near-immediate response. A task arriving
	// while the core is saturated by an old task must start quickly.
	w := policytest.Workload{}
	w.Tasks = append(w.Tasks, &simkern.Task{ID: 1, Work: time.Second, MemMB: 128})
	w.Tasks = append(w.Tasks, &simkern.Task{
		ID: 2, Arrival: 500 * time.Millisecond, Work: 10 * time.Millisecond, MemMB: 128,
	})
	k := policytest.Run(t, 1, cfs.New(cfs.Params{}), w)
	late := k.Tasks()[1]
	resp := late.FirstRun() - late.Arrival
	if resp > 10*time.Millisecond {
		t.Errorf("response %v, want fast wakeup preemption", resp)
	}
}

func TestIdleBalancePullsWork(t *testing.T) {
	// Everything arrives at once and lands per wakeup placement; after the
	// short tasks drain, the idle cores must steal the remaining long ones.
	w := policytest.Workload{}
	for i := 0; i < 8; i++ {
		w.Tasks = append(w.Tasks, &simkern.Task{
			ID: simkern.TaskID(i + 1), Work: 400 * time.Millisecond, MemMB: 128,
		})
	}
	k := policytest.Run(t, 4, cfs.New(cfs.Params{}), w)
	// With perfect balance 8×400ms on 4 cores finishes by ~850ms; without
	// stealing a pathological placement could exceed 1.2s.
	if k.Makespan() > 1200*time.Millisecond {
		t.Errorf("makespan %v, want < 1.2s with load balancing", k.Makespan())
	}
	// All four cores must have done meaningful work.
	for c := 0; c < 4; c++ {
		if busy := k.CoreBusy(simkern.CoreID(c)); busy < 300*time.Millisecond {
			t.Errorf("core %d busy only %v — balance failed", c, busy)
		}
	}
}

func TestCFSExecutionWorseFIFOResponseBetter(t *testing.T) {
	// Paper Observation 2, the central trade-off: FIFO beats CFS on
	// execution time; CFS beats FIFO on response time. Saturating load.
	w := func() policytest.Workload {
		return policytest.Mixed(120, time.Millisecond, 20*time.Millisecond, 250*time.Millisecond)
	}
	kFIFO := policytest.Run(t, 2, fifo.New(fifo.Config{}), w())
	kCFS := policytest.Run(t, 2, cfs.New(cfs.Params{}), w())

	if e1, e2 := policytest.MeanExecution(kFIFO), policytest.MeanExecution(kCFS); e1 >= e2 {
		t.Errorf("FIFO exec %v should beat CFS exec %v", e1, e2)
	}
	if r1, r2 := policytest.MeanResponse(kFIFO), policytest.MeanResponse(kCFS); r1 <= r2 {
		t.Errorf("CFS response %v should beat FIFO response %v", r2, r1)
	}
}

func TestVruntimeMonotone(t *testing.T) {
	w := policytest.Uniform(10, 0, 100*time.Millisecond)
	k := policytest.Run(t, 2, cfs.New(cfs.Params{}), w)
	for _, task := range k.Tasks() {
		if v := cfs.Vruntime(task); v < 0 {
			t.Errorf("task %d vruntime %v < 0", task.ID, v)
		}
	}
}

func TestEngineRemoveCoreDrains(t *testing.T) {
	// Build an engine directly and verify RemoveCore returns queued work.
	k, err := simkern.New(simkern.Config{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	var eng *cfs.Engine
	probe := &enginePolicy{build: func(env *ghost.Env) *cfs.Engine {
		eng = cfs.NewEngine(env, []simkern.CoreID{0, 1}, cfs.Params{})
		return eng
	}}
	if _, err := ghost.NewEnclave(k, probe, ghost.Config{NoLatency: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := k.AddTask(&simkern.Task{ID: simkern.TaskID(i + 1), Work: 100 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	var drained []*simkern.Task
	k.SetTimer(20*time.Millisecond, func() {
		drained = eng.RemoveCore(1)
		if len(eng.Cores()) != 1 {
			t.Errorf("cores after remove: %v", eng.Cores())
		}
		for _, task := range drained {
			eng.Enqueue(task) // redistribute to the remaining core
		}
	})
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(drained) == 0 {
		t.Fatal("RemoveCore drained nothing despite queued work")
	}
	policytest.AssertAllFinished(t, k)
}

// enginePolicy adapts a bare cfs.Engine into a ghost.Policy for tests.
type enginePolicy struct {
	build  func(*ghost.Env) *cfs.Engine
	engine *cfs.Engine
}

func (p *enginePolicy) Name() string { return "cfs-engine-probe" }
func (p *enginePolicy) Attach(env *ghost.Env) {
	p.engine = p.build(env)
}
func (p *enginePolicy) OnMessage(m ghost.Message) {
	switch m.Type {
	case ghost.MsgTaskNew:
		p.engine.Enqueue(m.Task)
	case ghost.MsgTaskDead:
		p.engine.TaskDead(m.Task, m.Core)
	}
}
func (p *enginePolicy) TickEvery() time.Duration { return time.Millisecond }
func (p *enginePolicy) OnTick()                  { p.engine.Tick() }
func (p *enginePolicy) NextDecision(now time.Duration) (time.Duration, bool) {
	return p.engine.NextDecision(now)
}

func TestSliceFloorsAtMinGranularity(t *testing.T) {
	// Many runnable tasks on one core: the slice floors at MinGranularity,
	// so segment lengths should cluster near it rather than collapse to 0.
	params := cfs.Params{SchedLatency: 20 * time.Millisecond, MinGranularity: 4 * time.Millisecond}
	w := policytest.Uniform(10, 0, 40*time.Millisecond)
	k := policytest.Run(t, 1, cfs.New(params), w)
	// 10 tasks → latency/nr = 2ms < min gran 4ms → slices are 4ms. Each
	// 40ms task then gets preempted ≈ 40/4 − 1 ≈ 9 times at most.
	for _, task := range k.Tasks() {
		if task.Preemptions() > 12 {
			t.Errorf("task %d preempted %d times; slices below min granularity?",
				task.ID, task.Preemptions())
		}
	}
}

func TestSliceFastPathExact(t *testing.T) {
	// The slice rule skips the SchedLatency/n division once
	// n·MinGranularity reaches SchedLatency; it must still equal the
	// plain max(SchedLatency/n, MinGranularity) for every n, including
	// latencies that are not a multiple of the granularity.
	for _, p := range []cfs.Params{
		{},
		{SchedLatency: 10 * time.Millisecond, MinGranularity: 3 * time.Millisecond},
		{SchedLatency: 7 * time.Millisecond, MinGranularity: 7 * time.Millisecond},
	} {
		lat, gran := p.SchedLatency, p.MinGranularity
		if lat == 0 {
			lat, gran = cfs.DefaultSchedLatency, cfs.DefaultMinGranularity
		}
		for n := 0; n <= 64; n++ {
			want := lat / time.Duration(max(n, 1))
			want = max(want, gran)
			if got := p.Slice(n); got != want {
				t.Errorf("latency %v gran %v: slice(%d) = %v, want %v", lat, gran, n, got, want)
			}
		}
	}
}

func TestRemoveCoreUnlinksAndReenqueues(t *testing.T) {
	// The hybrid's adaptive core split drains a CFS core with RemoveCore
	// and spreads its tasks over the remaining cores with EnqueueOn. The
	// drained tasks' tree nodes are reused by that re-enqueue, so
	// RemoveCore must hand them back unlinked, and every tree must stay
	// valid afterwards. The core is then re-added and refilled, as the
	// reverse migration does.
	k, err := simkern.New(simkern.Config{Cores: 3})
	if err != nil {
		t.Fatal(err)
	}
	var eng *cfs.Engine
	probe := &enginePolicy{build: func(env *ghost.Env) *cfs.Engine {
		eng = cfs.NewEngine(env, []simkern.CoreID{0, 1, 2}, cfs.Params{})
		return eng
	}}
	if _, err := ghost.NewEnclave(k, probe, ghost.Config{NoLatency: true}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if err := k.AddTask(&simkern.Task{ID: simkern.TaskID(i + 1), Work: 60 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	var drained []*simkern.Task
	k.SetTimer(20*time.Millisecond, func() {
		drained = eng.RemoveCore(2)
		for i, task := range drained {
			if cfs.Queued(task) {
				t.Errorf("task %d still linked after RemoveCore", task.ID)
			}
			eng.EnqueueOn(simkern.CoreID(i%2), task)
		}
		eng.CheckRunqueues()
		if got := eng.NrRunning(0) + eng.NrRunning(1); got != 30 {
			t.Errorf("runnable after redistribution = %d, want 30", got)
		}
	})
	k.SetTimer(40*time.Millisecond, func() {
		eng.AddCore(2)
		eng.Tick() // the empty queue pulls work immediately
		eng.CheckRunqueues()
	})
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(drained) < 2 {
		t.Fatalf("RemoveCore drained %d tasks, want the runner and queued work", len(drained))
	}
	eng.CheckRunqueues()
	policytest.AssertAllFinished(t, k)
	if busy := k.CoreBusy(2); busy < 50*time.Millisecond {
		t.Errorf("re-added core 2 busy only %v, want it refilled by idle balance", busy)
	}
}

func TestPreemptionChurnDoesNotAllocate(t *testing.T) {
	// Each task owns one runqueue node for its lifetime, so a run's
	// allocations scale with its tasks, not with its preemptions. The two
	// runs below have the same tasks; the long one preempts ~100x more.
	const tasks = 8
	run := func(work time.Duration) (allocs float64, preemptions int) {
		allocs = testing.AllocsPerRun(1, func() {
			k := policytest.Run(t, 1, cfs.New(cfs.Params{}), policytest.Uniform(tasks, 0, work))
			preemptions = policytest.TotalPreemptions(k)
		})
		return allocs, preemptions
	}
	shortAllocs, shortPre := run(10 * time.Millisecond)
	longAllocs, longPre := run(time.Second)
	t.Logf("short: %v allocs, %d preemptions; long: %v allocs, %d preemptions",
		shortAllocs, shortPre, longAllocs, longPre)
	if longPre-shortPre < 100*tasks {
		t.Fatalf("long run preempted %d times vs %d, want far more than %d tasks", longPre, shortPre, tasks)
	}
	if extra := longAllocs - shortAllocs; extra > tasks {
		t.Errorf("%d extra preemptions cost %v extra allocs, want at most %d (O(tasks))",
			longPre-shortPre, extra, tasks)
	}
}
