package simrun

import (
	"sort"
	"testing"
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/policy/cfs"
	"github.com/faassched/faassched/internal/policy/fifo"
	"github.com/faassched/faassched/internal/pricing"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/trace"
	"github.com/faassched/faassched/internal/workload"
)

func testInvocations(t *testing.T, n int) []workload.Invocation {
	t.Helper()
	cfg := trace.DefaultConfig()
	cfg.Minutes = 3
	tr, err := trace.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	invs, err := workload.Builder{}.Build(tr, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	return workload.Sample(invs, n)
}

// runIncremental drives one Incremental machine over invs the way the
// fleet executor does: run the clock to every watermark k·window strictly
// below each arrival, admit the arrival as a pooled task with ID index+1,
// and drain once the workload is exhausted.
func runIncremental(t *testing.T, kcfg simkern.Config, policy ghost.Policy, invs []workload.Invocation, window time.Duration, sink metrics.Sink, pool *workload.TaskPool) *Incremental {
	t.Helper()
	inc, err := NewIncremental(kcfg, policy, ghost.Config{}, sink, func(task *simkern.Task) { pool.Put(task) })
	if err != nil {
		t.Fatal(err)
	}
	mark := window
	for i, inv := range invs {
		for ; inv.Arrival > mark; mark += window {
			if err := inc.RunTo(mark); err != nil {
				t.Fatal(err)
			}
		}
		if err := inc.Admit(pool.Get(inv, simkern.TaskID(i+1))); err != nil {
			t.Fatal(err)
		}
	}
	if err := inc.Drain(); err != nil {
		t.Fatal(err)
	}
	return inc
}

// TestIncrementalMatchesMaterialized is the layer-local equivalence
// proof: the same workload driven through ExecStats (everything
// pre-seeded, Collect at the end) and through Incremental (lazy
// admission, completion sink) must produce bit-for-bit identical records,
// makespans, and core counters — for a tick-driven preempting policy
// (CFS) and a tickless one (FIFO).
func TestIncrementalMatchesMaterialized(t *testing.T) {
	invs := testInvocations(t, 400)
	policies := map[string]func() ghost.Policy{
		"cfs":  func() ghost.Policy { return cfs.New(cfs.Params{}) },
		"fifo": func() ghost.Policy { return fifo.New(fifo.Config{}) },
	}
	for name, mk := range policies {
		t.Run(name, func(t *testing.T) {
			kcfg := simkern.DefaultConfig(4)
			mat, err := ExecStats(kcfg, mk(), ghost.Config{}, AddTasks(workload.Tasks(invs)), nil)
			if err != nil {
				t.Fatal(err)
			}
			want := metrics.Collect(mat)

			var got metrics.Set
			st := runIncremental(t, kcfg, mk(), invs, DefaultWindow, &got, workload.NewTaskPool()).k
			sort.Slice(got.Records, func(i, j int) bool { return got.Records[i].ID < got.Records[j].ID })

			if len(got.Records) != len(want.Records) {
				t.Fatalf("streamed %d records, materialized %d", len(got.Records), len(want.Records))
			}
			for i := range want.Records {
				if got.Records[i] != want.Records[i] {
					t.Fatalf("record %d differs:\nstreamed    %+v\nmaterialized %+v", i, got.Records[i], want.Records[i])
				}
			}
			if st.Makespan() != mat.Makespan() {
				t.Errorf("makespan %v != %v", st.Makespan(), mat.Makespan())
			}
			for c := 0; c < kcfg.Cores; c++ {
				id := simkern.CoreID(c)
				if st.CorePreemptions(id) != mat.CorePreemptions(id) || st.CoreSwitches(id) != mat.CoreSwitches(id) {
					t.Errorf("core %d counters diverge", c)
				}
			}
		})
	}
}

// TestIncrementalRecyclesThroughPool: with a pool attached, the run must
// complete with far fewer live task structs than invocations — the
// memory bound the streaming dataflow exists for.
func TestIncrementalRecyclesThroughPool(t *testing.T) {
	invs := testInvocations(t, 600)
	pool := workload.NewTaskPool()
	acc := metrics.NewAccumulator(pricing.Default())
	runIncremental(t, simkern.DefaultConfig(4), cfs.New(cfs.Params{}), invs, DefaultWindow, acc, pool)
	if acc.Completed() != len(invs) {
		t.Fatalf("accumulator saw %d completions, want %d", acc.Completed(), len(invs))
	}
	// Every retired struct ends up pooled; the pool's high-water mark is
	// the run's peak concurrency, which must be far below the total.
	if free := pool.FreeLen(); free == 0 || free >= len(invs)/2 {
		t.Errorf("pool free list = %d of %d tasks; recycling is not bounding memory", free, len(invs))
	}
}

// TestIncrementalValidation covers the error paths.
func TestIncrementalValidation(t *testing.T) {
	if _, err := NewIncremental(simkern.DefaultConfig(2), fifo.New(fifo.Config{}), ghost.Config{}, nil, nil); err == nil {
		t.Error("missing sink accepted")
	}
	var set metrics.Set
	inc, err := NewIncremental(simkern.DefaultConfig(2), fifo.New(fifo.Config{}), ghost.Config{}, &set, nil)
	if err != nil {
		t.Fatal(err)
	}
	// An arrival behind the last watermark must surface as an error, not
	// a silently reordered run.
	if err := inc.RunTo(time.Second); err != nil {
		t.Fatal(err)
	}
	late := &simkern.Task{ID: 1, Kind: simkern.KindFunction, Arrival: 500 * time.Millisecond, Work: time.Millisecond}
	if err := inc.Admit(late); err == nil {
		t.Error("arrival behind the watermark accepted")
	}
}
