package ghost

import (
	"errors"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/simkern"
)

// testPolicy is a centralized FIFO used to exercise the enclave plumbing.
type testPolicy struct {
	env      *Env
	queue    []*simkern.Task
	msgs     []Message
	ticks    int
	tickRate time.Duration
}

func (p *testPolicy) Name() string    { return "test-fifo" }
func (p *testPolicy) Attach(env *Env) { p.env = env }
func (p *testPolicy) OnMessage(m Message) {
	p.msgs = append(p.msgs, m)
	if m.Type == MsgTaskNew {
		p.queue = append(p.queue, m.Task)
	}
	p.dispatch()
}

func (p *testPolicy) dispatch() {
	for c := simkern.CoreID(0); int(c) < p.env.Cores(); c++ {
		if len(p.queue) == 0 {
			return
		}
		if p.env.RunningTask(c) == nil {
			t := p.queue[0]
			if err := p.env.CommitRun(c, t); err != nil {
				return
			}
			p.queue = p.queue[1:]
		}
	}
}

func (p *testPolicy) TickEvery() time.Duration {
	if p.tickRate == 0 {
		return time.Millisecond
	}
	return p.tickRate
}
func (p *testPolicy) OnTick() { p.ticks++ }

// NextDecision asks for every boundary: the plumbing tests count ticks.
func (p *testPolicy) NextDecision(now time.Duration) (time.Duration, bool) { return now, true }

func newKernel(t *testing.T, cores int) *simkern.Kernel {
	t.Helper()
	k, err := simkern.New(simkern.Config{Cores: cores})
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func TestNewEnclaveValidation(t *testing.T) {
	k := newKernel(t, 1)
	if _, err := NewEnclave(nil, &testPolicy{}, Config{}); err == nil {
		t.Error("nil kernel accepted")
	}
	if _, err := NewEnclave(k, nil, Config{}); err == nil {
		t.Error("nil policy accepted")
	}
	if _, err := NewEnclave(k, &testPolicy{}, Config{MsgLatency: -1}); err == nil {
		t.Error("negative latency accepted")
	}
}

func TestMessagesDriveScheduling(t *testing.T) {
	k := newKernel(t, 2)
	p := &testPolicy{}
	enclave, err := NewEnclave(k, p, Config{NoLatency: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		task := &simkern.Task{ID: simkern.TaskID(i), Work: 10 * time.Millisecond}
		if err := k.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if k.Outstanding() != 0 {
		t.Fatalf("outstanding = %d, want 0", k.Outstanding())
	}
	var news, deads int
	for _, m := range p.msgs {
		switch m.Type {
		case MsgTaskNew:
			news++
		case MsgTaskDead:
			deads++
		}
	}
	if news != 5 || deads != 5 {
		t.Errorf("messages: %d new, %d dead; want 5/5", news, deads)
	}
	st := enclave.Stats()
	if st.Delivered != 10 {
		t.Errorf("Delivered = %d, want 10", st.Delivered)
	}
	if st.Commits != 5 {
		t.Errorf("Commits = %d, want 5", st.Commits)
	}
}

func TestMessageLatencyDelaysDelivery(t *testing.T) {
	k := newKernel(t, 1)
	p := &testPolicy{}
	lat := 500 * time.Microsecond
	if _, err := NewEnclave(k, p, Config{MsgLatency: lat}); err != nil {
		t.Fatal(err)
	}
	task := &simkern.Task{ID: 1, Arrival: time.Millisecond, Work: 10 * time.Millisecond}
	if err := k.AddTask(task); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	// Task arrived at 1ms, message delivered at 1.5ms, so first run at 1.5ms.
	if got := task.FirstRun(); got != time.Millisecond+lat {
		t.Errorf("FirstRun = %v, want %v", got, time.Millisecond+lat)
	}
	// The TASK_NEW message must carry the emission time, not delivery time.
	if p.msgs[0].Sent != time.Millisecond {
		t.Errorf("msg Sent = %v, want 1ms", p.msgs[0].Sent)
	}
}

func TestDefaultLatencyApplied(t *testing.T) {
	k := newKernel(t, 1)
	p := &testPolicy{}
	if _, err := NewEnclave(k, p, Config{}); err != nil {
		t.Fatal(err)
	}
	task := &simkern.Task{ID: 1, Work: time.Millisecond}
	if err := k.AddTask(task); err != nil {
		t.Fatal(err)
	}
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := task.FirstRun(); got != DefaultMsgLatency {
		t.Errorf("FirstRun = %v, want default latency %v", got, DefaultMsgLatency)
	}
}

func TestTickerLifecycle(t *testing.T) {
	for _, force := range []bool{false, true} {
		k := newKernel(t, 1)
		p := &testPolicy{tickRate: time.Millisecond}
		enclave, err := NewEnclave(k, p, Config{NoLatency: true, ForceTickPump: force})
		if err != nil {
			t.Fatal(err)
		}
		// One 10ms task: ticks should fire roughly 10 times and then stop
		// once the machine drains (the event loop must terminate on its
		// own), under either pump.
		if err := k.AddTask(&simkern.Task{ID: 1, Work: 10 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		if _, err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		if p.ticks < 8 || p.ticks > 12 {
			t.Errorf("force=%v: ticks = %d, want ~10", force, p.ticks)
		}
		if enclave.Stats().Ticks != int64(p.ticks) {
			t.Errorf("force=%v: stats ticks %d != policy ticks %d", force, enclave.Stats().Ticks, p.ticks)
		}
	}
}

func TestFailedTransactionCounted(t *testing.T) {
	k := newKernel(t, 1)
	p := &testPolicy{}
	enclave, err := NewEnclave(k, p, Config{NoLatency: true})
	if err != nil {
		t.Fatal(err)
	}
	// Preempting an idle core is a failed transaction.
	if _, err := p.env.CommitPreempt(0); !errors.Is(err, simkern.ErrCoreIdle) {
		t.Fatalf("CommitPreempt(idle) = %v, want ErrCoreIdle", err)
	}
	if enclave.Stats().Failed != 1 {
		t.Errorf("Failed = %d, want 1", enclave.Stats().Failed)
	}
	p.env.NoteMigration()
	if enclave.Stats().Migrations != 1 {
		t.Errorf("Migrations = %d, want 1", enclave.Stats().Migrations)
	}
}

func TestPreemptRoundTripThroughEnv(t *testing.T) {
	k := newKernel(t, 1)
	p := &testPolicy{}
	if _, err := NewEnclave(k, p, Config{NoLatency: true}); err != nil {
		t.Fatal(err)
	}
	task := &simkern.Task{ID: 1, Work: 100 * time.Millisecond}
	if err := k.AddTask(task); err != nil {
		t.Fatal(err)
	}
	p.env.SetTimer(20*time.Millisecond, func() {
		got, err := p.env.CommitPreempt(0)
		if err != nil {
			t.Fatalf("CommitPreempt: %v", err)
		}
		if got != task {
			t.Fatal("wrong task preempted")
		}
		// Requeue at the back, per the paper's preemption semantics.
		p.queue = append(p.queue, got)
		p.dispatch()
	})
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if task.State() != simkern.StateFinished {
		t.Fatalf("task state = %v", task.State())
	}
	if task.Preemptions() != 1 {
		t.Errorf("preemptions = %d, want 1", task.Preemptions())
	}
	if got := p.env.TaskCPUConsumed(task); got != task.CPUConsumed() {
		t.Errorf("TaskCPUConsumed mismatch: %v vs %v", got, task.CPUConsumed())
	}
}

func TestMsgTypeString(t *testing.T) {
	if MsgTaskNew.String() != "TASK_NEW" || MsgTaskDead.String() != "TASK_DEAD" {
		t.Error("unexpected message type strings")
	}
	if MsgType(42).String() == "" {
		t.Error("unknown type should render")
	}
}

// TestDeliveryBatching checks that same-instant messages share one flush
// timer without losing count or order: tasks arriving at the same time
// must be delivered as distinct messages, in task-addition order, each
// after the delegation latency.
func TestDeliveryBatching(t *testing.T) {
	k := newKernel(t, 4)
	p := &stampingPolicy{testPolicy: &testPolicy{tickRate: -1}}
	enclave, err := NewEnclave(k, p, Config{MsgLatency: 2 * time.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	// Four tasks at the same arrival instant, two at a later one.
	for i := 1; i <= 4; i++ {
		if err := k.AddTask(&simkern.Task{ID: simkern.TaskID(i), Work: time.Millisecond, Arrival: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 5; i <= 6; i++ {
		if err := k.AddTask(&simkern.Task{ID: simkern.TaskID(i), Work: time.Millisecond, Arrival: 2 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if got := enclave.Stats().Delivered; got != 12 {
		t.Fatalf("Delivered = %d, want 12 (6 TASK_NEW + 6 TASK_DEAD)", got)
	}
	var newOrder []simkern.TaskID
	for i, m := range p.msgs {
		if got, want := p.deliveredAt[i], m.Sent+2*time.Microsecond; got != want {
			t.Fatalf("message %d delivered at %v, want sent %v + latency", i, got, m.Sent)
		}
		if m.Type == MsgTaskNew {
			newOrder = append(newOrder, m.Task.ID)
		}
	}
	for i, id := range newOrder {
		if id != simkern.TaskID(i+1) {
			t.Fatalf("TASK_NEW order = %v, want addition order", newOrder)
		}
	}
	// The internal queues must be fully drained and recycled.
	if enclave.msgHead != 0 || len(enclave.msgs) != 0 || len(enclave.batches) != 0 {
		t.Fatalf("delivery queue not recycled: head=%d msgs=%d batches=%d",
			enclave.msgHead, len(enclave.msgs), len(enclave.batches))
	}
}

// stampingPolicy records the simulation clock at each OnMessage, so the
// batching test can assert the exact delivery instant.
type stampingPolicy struct {
	*testPolicy
	deliveredAt []time.Duration
}

func (p *stampingPolicy) OnMessage(m Message) {
	p.deliveredAt = append(p.deliveredAt, p.env.Now())
	p.testPolicy.OnMessage(m)
}

// quantumPolicy is a minimal Ticker: centralized FIFO with a
// preemption quantum enforced at agent ticks, whose NextDecision is the
// earliest quantum expiry (or "now" when queued work faces an idle core).
// It is the smallest policy whose ticks both act and predictably no-op,
// which is what the horizon pump tests need.
type quantumPolicy struct {
	env     *Env
	quantum time.Duration
	queue   []*simkern.Task
	ticks   int
	acted   []time.Duration // instants at which OnTick preempted something
	park    simkern.TaskID  // task id held out of the queue (abort-drain test)
}

func (p *quantumPolicy) Name() string    { return "test-quantum" }
func (p *quantumPolicy) Attach(env *Env) { p.env = env }

func (p *quantumPolicy) OnMessage(m Message) {
	if m.Type == MsgTaskNew && m.Task.ID != p.park {
		p.queue = append(p.queue, m.Task)
	}
	p.dispatch()
}

func (p *quantumPolicy) dispatch() {
	for c := simkern.CoreID(0); int(c) < p.env.Cores(); c++ {
		if len(p.queue) == 0 {
			return
		}
		if p.env.RunningTask(c) != nil {
			continue
		}
		if err := p.env.CommitRun(c, p.queue[0]); err != nil {
			continue
		}
		p.queue = p.queue[1:]
	}
}

func (p *quantumPolicy) TickEvery() time.Duration { return time.Millisecond }

func (p *quantumPolicy) OnTick() {
	p.ticks++
	now := p.env.Now()
	for c := simkern.CoreID(0); int(c) < p.env.Cores(); c++ {
		t := p.env.RunningTask(c)
		if t == nil || now-t.SegmentStart() < p.quantum {
			continue
		}
		got, err := p.env.CommitPreempt(c)
		if err != nil {
			continue
		}
		p.acted = append(p.acted, now)
		p.queue = append(p.queue, got)
	}
	p.dispatch()
}

func (p *quantumPolicy) NextDecision(now time.Duration) (time.Duration, bool) {
	var best time.Duration
	found := false
	for c := simkern.CoreID(0); int(c) < p.env.Cores(); c++ {
		t := p.env.RunningTask(c)
		if t == nil {
			if len(p.queue) > 0 {
				return now, true
			}
			continue
		}
		h := t.SegmentStart() + p.quantum
		if h < now {
			h = now
		}
		if !found || h < best {
			best, found = h, true
		}
	}
	return best, found
}

// runQuantum drives tasks (built by mk, so each run gets fresh structs)
// under one pump flavor and returns the policy and enclave stats.
func runQuantum(t *testing.T, cores int, mk func() []*simkern.Task, force bool, finishAt *[]time.Duration) (*quantumPolicy, Stats) {
	t.Helper()
	k := newKernel(t, cores)
	p := &quantumPolicy{quantum: 3 * time.Millisecond}
	enclave, err := NewEnclave(k, p, Config{ForceTickPump: force})
	if err != nil {
		t.Fatal(err)
	}
	tasks := mk()
	for _, task := range tasks {
		if err := k.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if k.Outstanding() != 0 {
		t.Fatalf("outstanding = %d, want 0", k.Outstanding())
	}
	if finishAt != nil {
		for _, task := range tasks {
			*finishAt = append(*finishAt, task.Finish())
		}
	}
	return p, enclave.Stats()
}

func sameDurations(a, b []time.Duration) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestHorizonPumpEquivalence pins the core tick-elision claim at the
// enclave level: the horizon pump preempts at exactly the instants the
// naive pump does, finishes every task at the same time, and skips the
// no-op boundaries in between.
func TestHorizonPumpEquivalence(t *testing.T) {
	mk := func() []*simkern.Task {
		return []*simkern.Task{
			{ID: 1, Work: 10 * time.Millisecond},
			{ID: 2, Work: 7 * time.Millisecond},
			{ID: 3, Work: 500 * time.Microsecond, Arrival: 4 * time.Millisecond},
		}
	}
	var naiveFinish, elidedFinish []time.Duration
	naive, naiveStats := runQuantum(t, 1, mk, true, &naiveFinish)
	elided, elidedStats := runQuantum(t, 1, mk, false, &elidedFinish)

	if !sameDurations(naive.acted, elided.acted) {
		t.Fatalf("preemption instants diverge:\n  naive  %v\n  elided %v", naive.acted, elided.acted)
	}
	if len(naive.acted) == 0 {
		t.Fatal("quantum never fired; test proves nothing")
	}
	if !sameDurations(naiveFinish, elidedFinish) {
		t.Fatalf("finish times diverge:\n  naive  %v\n  elided %v", naiveFinish, elidedFinish)
	}
	if naiveStats.TicksElided != 0 {
		t.Errorf("naive pump reported %d elided ticks", naiveStats.TicksElided)
	}
	if elidedStats.TicksElided == 0 {
		t.Error("horizon pump elided nothing")
	}
	if elidedStats.Ticks >= naiveStats.Ticks {
		t.Errorf("horizon pump fired %d ticks, naive %d — nothing saved", elidedStats.Ticks, naiveStats.Ticks)
	}
	// Every boundary is accounted for: fired + elided covers the same span
	// the naive pump ticked through, at most off by the final boundary the
	// naive pump spends discovering the machine drained.
	if total := elidedStats.Ticks + elidedStats.TicksElided; total > naiveStats.Ticks || total < naiveStats.Ticks-1 {
		t.Errorf("fired %d + elided %d boundaries vs %d naive ticks", elidedStats.Ticks, elidedStats.TicksElided, naiveStats.Ticks)
	}
}

// TestHorizonPumpGridSurvivesIdleGap covers the §7 liveness rule: a
// not-yet-arrived task keeps the machine Live through a fully idle gap,
// so the naive pump ticks straight through and its phase grid never
// re-anchors. The horizon pump must skip the whole gap yet preempt
// the late task's overrun at the identical grid instant.
func TestHorizonPumpGridSurvivesIdleGap(t *testing.T) {
	mk := func() []*simkern.Task {
		return []*simkern.Task{
			// Arrivals at 250µs put the tick grid off the ms lattice: the
			// preemption boundary below lands mid-period, so a re-anchored
			// (wrong) grid would preempt at a different instant.
			{ID: 1, Work: 2 * time.Millisecond, Arrival: 250 * time.Microsecond},
			// 40ms gap with nothing runnable, then two tasks contending.
			{ID: 2, Work: 9 * time.Millisecond, Arrival: 42 * time.Millisecond},
			{ID: 3, Work: 9 * time.Millisecond, Arrival: 42*time.Millisecond + 100*time.Microsecond},
		}
	}
	naive, naiveStats := runQuantum(t, 1, mk, true, nil)
	elided, elidedStats := runQuantum(t, 1, mk, false, nil)
	if !sameDurations(naive.acted, elided.acted) {
		t.Fatalf("preemption instants diverge across the idle gap:\n  naive  %v\n  elided %v", naive.acted, elided.acted)
	}
	if len(naive.acted) == 0 {
		t.Fatal("quantum never fired; test proves nothing")
	}
	// The gap is ~40 boundaries the naive pump burned and the horizon pump
	// must have skipped.
	if gapSaved := elidedStats.TicksElided; gapSaved < 30 {
		t.Errorf("elided only %d boundaries across a 40ms idle gap", gapSaved)
	}
	if elidedStats.Ticks >= naiveStats.Ticks/2 {
		t.Errorf("horizon pump fired %d of naive's %d ticks across an idle gap", elidedStats.Ticks, naiveStats.Ticks)
	}
}

// TestHorizonPumpDiesAndReanchors covers the complementary lifecycle: the
// machine fully drains (outstanding hits zero), the grid dies at the same
// boundary the naive pump's last tick stops re-arming, and a later
// mid-run AddTask re-anchors both pumps at the same new phase.
func TestHorizonPumpDiesAndReanchors(t *testing.T) {
	run := func(force bool) (*quantumPolicy, Stats) {
		k := newKernel(t, 1)
		p := &quantumPolicy{quantum: 3 * time.Millisecond}
		enclave, err := NewEnclave(k, p, Config{ForceTickPump: force})
		if err != nil {
			t.Fatal(err)
		}
		if err := k.AddTask(&simkern.Task{ID: 1, Work: 4 * time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		// Long after the first task drains (pump dead), two contending
		// tasks appear off the old grid phase.
		p.env.SetTimer(30*time.Millisecond+700*time.Microsecond, func() {
			for id := simkern.TaskID(2); id <= 3; id++ {
				if err := p.env.AddTask(&simkern.Task{ID: id, Work: 8 * time.Millisecond}); err != nil {
					t.Fatal(err)
				}
			}
		})
		if _, err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		if k.Outstanding() != 0 {
			t.Fatalf("outstanding = %d, want 0", k.Outstanding())
		}
		return p, enclave.Stats()
	}
	naive, _ := run(true)
	elided, elidedStats := run(false)
	if !sameDurations(naive.acted, elided.acted) {
		t.Fatalf("preemption instants diverge after pump death/restart:\n  naive  %v\n  elided %v", naive.acted, elided.acted)
	}
	if len(naive.acted) == 0 {
		t.Fatal("quantum never fired; test proves nothing")
	}
	if elidedStats.TicksElided == 0 {
		t.Error("horizon pump elided nothing")
	}
}

// TestForceTickPumpDisablesElision pins the test knob: a Ticker
// policy under ForceTickPump runs the naive pump (one tick per boundary,
// nothing elided).
func TestForceTickPumpDisablesElision(t *testing.T) {
	mk := func() []*simkern.Task {
		return []*simkern.Task{{ID: 1, Work: 10 * time.Millisecond}}
	}
	p, st := runQuantum(t, 1, mk, true, nil)
	if st.TicksElided != 0 {
		t.Errorf("TicksElided = %d under ForceTickPump", st.TicksElided)
	}
	if p.ticks < 8 {
		t.Errorf("forced naive pump ticked only %d times over 10ms", p.ticks)
	}
}

// TestHorizonPumpAbortDrain drives the simkern.DrainHandler path: the
// machine's last outstanding task is retired by Env.AbortTask from a
// policy timer — no TASK_DEAD, no message dispatch — so the drain hook is
// the only thing that lets the elision pump's grid die at the boundary
// the naive pump's pending tick would. Work added after the drain must
// then re-anchor both pumps at the same new phase, which the preemption
// instants of a contending pair pin exactly.
func TestHorizonPumpAbortDrain(t *testing.T) {
	run := func(force bool) (*quantumPolicy, Stats) {
		k := newKernel(t, 1)
		p := &quantumPolicy{quantum: 3 * time.Millisecond}
		enclave, err := NewEnclave(k, p, Config{ForceTickPump: force})
		if err != nil {
			t.Fatal(err)
		}
		if err := k.AddTask(&simkern.Task{ID: 1, Work: time.Millisecond}); err != nil {
			t.Fatal(err)
		}
		// Task 2 arrives at 2ms but is parked outside the policy queue, so
		// it stays Runnable until the abort below retires it.
		parked := &simkern.Task{ID: 2, Work: time.Millisecond, Arrival: 2 * time.Millisecond}
		if err := k.AddTask(parked); err != nil {
			t.Fatal(err)
		}
		p.park = parked.ID
		p.env.SetTimer(5*time.Millisecond, func() {
			if err := p.env.AbortTask(parked); err != nil {
				t.Fatalf("AbortTask: %v", err)
			}
		})
		// Off-phase restart long after the drain: two contending tasks
		// whose quantum preemptions expose the re-anchored grid.
		p.env.SetTimer(20*time.Millisecond+300*time.Microsecond, func() {
			for id := simkern.TaskID(3); id <= 4; id++ {
				if err := p.env.AddTask(&simkern.Task{ID: id, Work: 8 * time.Millisecond}); err != nil {
					t.Fatal(err)
				}
			}
		})
		if _, err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		if k.Outstanding() != 0 {
			t.Fatalf("outstanding = %d, want 0", k.Outstanding())
		}
		return p, enclave.Stats()
	}
	naive, _ := run(true)
	elided, elidedStats := run(false)
	if !sameDurations(naive.acted, elided.acted) {
		t.Fatalf("preemption instants diverge after an abort-drained grid:\n  naive  %v\n  elided %v", naive.acted, elided.acted)
	}
	if len(naive.acted) == 0 {
		t.Fatal("quantum never fired; test proves nothing")
	}
	if elidedStats.TicksElided == 0 {
		t.Error("horizon pump elided nothing")
	}
}

// TestArrivalsPendingKeepsGrid covers lazy admission: the late pair is
// admitted only after the machine drained, but the admitter's
// arrivals-pending flag keeps the kernel Live through the gap, so both
// pumps stay on the grid the pre-seeded run keeps and preempt at the
// same instants. Without the flag the grid dies and re-anchors at the
// late arrival, which the off-lattice first arrival makes visible.
func TestArrivalsPendingKeepsGrid(t *testing.T) {
	mk := func() []*simkern.Task {
		return []*simkern.Task{
			{ID: 1, Work: 2 * time.Millisecond, Arrival: 250 * time.Microsecond},
			{ID: 2, Work: 9 * time.Millisecond, Arrival: 42 * time.Millisecond},
			{ID: 3, Work: 9 * time.Millisecond, Arrival: 42*time.Millisecond + 100*time.Microsecond},
		}
	}
	seeded, _ := runQuantum(t, 1, mk, true, nil)
	if len(seeded.acted) == 0 {
		t.Fatal("quantum never fired; test proves nothing")
	}
	lazy := func(force, pending bool) []time.Duration {
		k := newKernel(t, 1)
		p := &quantumPolicy{quantum: 3 * time.Millisecond}
		if _, err := NewEnclave(k, p, Config{ForceTickPump: force}); err != nil {
			t.Fatal(err)
		}
		tasks := mk()
		k.SetArrivalsPending(pending)
		if err := k.AddTask(tasks[0]); err != nil {
			t.Fatal(err)
		}
		p.env.SetTimer(30*time.Millisecond, func() {
			for _, task := range tasks[1:] {
				if err := k.AdmitTask(task); err != nil {
					t.Fatal(err)
				}
			}
			k.SetArrivalsPending(false)
		})
		if _, err := k.Run(0); err != nil {
			t.Fatal(err)
		}
		if k.Live() {
			t.Fatalf("kernel still live after the run (outstanding %d)", k.Outstanding())
		}
		return p.acted
	}
	for _, force := range []bool{true, false} {
		if got := lazy(force, true); !sameDurations(got, seeded.acted) {
			t.Errorf("force=%v: lazily admitted run preempts at %v, pre-seeded at %v", force, got, seeded.acted)
		}
		if got := lazy(force, false); sameDurations(got, seeded.acted) {
			t.Errorf("force=%v: without the pending flag the grid still matched; test proves nothing", force)
		}
	}
}

// wrapper interposes on a policy without implementing any capability of
// its own, the way the dataflow and fault wrappers do.
type wrapper struct{ Policy }

func (w wrapper) Unwrap() Policy { return w.Policy }

// TestAsWalksUnwrapChain pins the single capability lookup: As finds a
// capability through any depth of wrappers, reports its absence, and the
// enclave drives a wrapped policy's Ticker exactly as an unwrapped one.
func TestAsWalksUnwrapChain(t *testing.T) {
	p := &quantumPolicy{quantum: 3 * time.Millisecond}
	wrapped := wrapper{wrapper{p}}
	if got, ok := As[Ticker](wrapped); !ok || got != Ticker(p) {
		t.Fatalf("As[Ticker] = %v, %v; want the wrapped policy", got, ok)
	}
	if _, ok := As[TaskEvictor](wrapped); ok {
		t.Fatal("As[TaskEvictor] found a capability no policy in the chain has")
	}
	if _, ok := As[Ticker](nil); ok {
		t.Fatal("As on a nil policy found a capability")
	}
	mk := func() []*simkern.Task {
		return []*simkern.Task{{ID: 1, Work: 10 * time.Millisecond}, {ID: 2, Work: 7 * time.Millisecond}}
	}
	direct, directStats := runQuantum(t, 1, mk, false, nil)
	k := newKernel(t, 1)
	enclave, err := NewEnclave(k, wrapped, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, task := range mk() {
		if err := k.AddTask(task); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := k.Run(0); err != nil {
		t.Fatal(err)
	}
	if !sameDurations(p.acted, direct.acted) || enclave.Stats() != directStats {
		t.Fatalf("wrapped run preempts at %v with %+v; direct at %v with %+v",
			p.acted, enclave.Stats(), direct.acted, directStats)
	}
}
