// Streaming side of the workload pipeline: a Source yields invocations
// lazily, minute by minute, so consumers (the streaming runners in
// internal/simrun and internal/cluster) never hold more than one trace
// minute of arrivals — the first half of turning peak memory from
// O(total invocations) into O(active tasks + watermark window). Build remains the materialized adapter over Stream.

package workload

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"github.com/faassched/faassched/internal/fib"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/trace"
)

// Source yields invocations in non-decreasing arrival order. It is an
// iter.Seq[Invocation]: usable directly in a range-over-func loop, or
// pulled one invocation at a time via iter.Pull.
//
// Replayability depends on the producer: derived sources (Builder.Stream,
// SliceSource) may be consumed any number of times and every pass yields
// the identical sequence, but sources that drain an underlying reader
// (ReadSource) are single-pass — a second iteration yields nothing and
// reports "source already consumed" through the producer's error function.
// Consumers that need multiple passes over an arbitrary Source must
// Materialize it first.
type Source func(yield func(Invocation) bool)

// Stream is the lazy equivalent of Build: it validates the request and
// merges the trace's bucket counts up front (O(buckets × minutes), tiny),
// but derives each minute's invocations only as the consumer reaches it.
// The yielded sequence is exactly Build's output: arrivals within a minute
// never cross minute boundaries, so sorting each minute independently with
// Build's comparator reproduces its global stable sort, and within one
// (fibN, memMB) bucket arrivals are strictly increasing, so no tie depends
// on append order across minutes.
func (b Builder) Stream(tr *trace.Trace, startMinute, minutes int) (Source, error) {
	b = b.withDefaults()
	if err := b.Model.Validate(); err != nil {
		return nil, err
	}
	if b.Downscale < 1 {
		return nil, fmt.Errorf("workload: Downscale must be >= 1, got %d", b.Downscale)
	}
	if startMinute < 0 || minutes < 1 || startMinute+minutes > tr.Minutes {
		return nil, fmt.Errorf("workload: minute range [%d, %d) outside trace of %d minutes",
			startMinute, startMinute+minutes, tr.Minutes)
	}

	// Clean + bucket + merge (§V-B "Extracting Traces").
	merged := make(map[bucketKey][]int)
	for _, row := range tr.CleanRows() {
		key := bucketKey{fibN: b.Model.NearestN(row.AvgDuration), memMB: row.MemMB}
		counts, ok := merged[key]
		if !ok {
			counts = make([]int, minutes)
			merged[key] = counts
		}
		for m := 0; m < minutes; m++ {
			counts[m] += row.Counts[startMinute+m]
		}
	}

	// Deterministic iteration order over buckets.
	keys := make([]bucketKey, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].fibN != keys[j].fibN {
			return keys[i].fibN < keys[j].fibN
		}
		return keys[i].memMB < keys[j].memMB
	})

	// Size the per-minute buffer once so steady-state iteration reuses it.
	peak := 0
	for m := 0; m < minutes; m++ {
		n := 0
		for _, key := range keys {
			n += merged[key][m] / b.Downscale
		}
		if n > peak {
			peak = n
		}
	}

	return func(yield func(Invocation) bool) {
		buf := make([]Invocation, 0, peak)
		for m := 0; m < minutes; m++ {
			// Downscale + evenly spaced arrivals per minute (§V-B
			// "Workload Generation").
			buf = buf[:0]
			base := time.Duration(m) * time.Minute
			for ki, key := range keys {
				k := merged[key][m] / b.Downscale
				if k <= 0 {
					continue
				}
				duration := b.Model.Duration(key.fibN)
				iat := time.Minute / time.Duration(k)
				for i := 0; i < k; i++ {
					buf = append(buf, Invocation{
						Arrival:  base + time.Duration(i)*iat,
						FibN:     key.fibN,
						Duration: duration,
						MemMB:    key.memMB,
						FuncID:   ki + 1, // stable over the sorted buckets
					})
				}
			}
			// "After sorting the invocations of all functions within that
			// minute, the time difference between adjacent invocations is
			// the inter-arrival time."
			sort.SliceStable(buf, func(i, j int) bool {
				if buf[i].Arrival != buf[j].Arrival {
					return buf[i].Arrival < buf[j].Arrival
				}
				if buf[i].FibN != buf[j].FibN {
					return buf[i].FibN < buf[j].FibN
				}
				return buf[i].MemMB < buf[j].MemMB
			})
			for _, inv := range buf {
				if !yield(inv) {
					return
				}
			}
		}
	}, nil
}

// ReadSource is Read's streaming sibling: it validates the header up
// front, then yields invocations one parsed line at a time, so a
// multi-GB trace file can feed the streaming simulation entry points
// without ever being materialized. Unlike a Builder.Stream source the
// result is single-pass — it consumes r as it is pulled, so it must be
// iterated at most once. A second iteration yields nothing and latches a
// "source already consumed" error on the returned error function, so a
// multi-pass consumer fails loudly instead of silently simulating an
// empty run.
//
// Parse errors after the header cannot surface through the yield-based
// Source shape; they stop the stream early and are reported by the
// returned error function, which the consumer must check once iteration
// is over. Read is the thin materializing adapter over this.
func ReadSource(r io.Reader, model fib.DurationModel) (Source, func() error, error) {
	if model == (fib.DurationModel{}) {
		model = fib.DefaultModel()
	}
	if err := model.Validate(); err != nil {
		return nil, nil, err
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	if !sc.Scan() {
		return nil, nil, errors.New("workload: empty file")
	}
	if got := strings.TrimSpace(sc.Text()); got != fileHeader {
		return nil, nil, fmt.Errorf("workload: bad header %q, want %q", got, fileHeader)
	}
	var readErr error
	started := false
	src := func(yield func(Invocation) bool) {
		// Single-pass latch: any second iteration — including after an
		// early break — yields nothing, rather than resuming mid-file
		// with the arrival accumulator and line counter rebased. The
		// violation is surfaced through the error function (unless a real
		// read error already owns it).
		if started {
			if readErr == nil {
				readErr = errors.New("workload: source already consumed (ReadSource is single-pass; Materialize first for multiple passes)")
			}
			return
		}
		started = true
		arrival := time.Duration(0)
		line := 1
		for readErr == nil && sc.Scan() {
			line++
			text := strings.TrimSpace(sc.Text())
			if text == "" {
				continue
			}
			inv, err := parseInvocation(text, line, model)
			if err != nil {
				readErr = err
				return
			}
			// The parsed field holds the inter-arrival time.
			if inv.Arrival > math.MaxInt64-arrival {
				readErr = fmt.Errorf("workload: line %d: arrival overflows", line)
				return
			}
			arrival += inv.Arrival
			inv.Arrival = arrival
			if !yield(inv) {
				return
			}
		}
		if err := sc.Err(); err != nil && readErr == nil {
			readErr = err
		}
	}
	return src, func() error { return readErr }, nil
}

// parseInvocation parses one workload-file row. The returned Arrival
// carries the row's inter-arrival time; the caller accumulates it into an
// absolute arrival instant.
func parseInvocation(text string, line int, model fib.DurationModel) (Invocation, error) {
	fields := strings.Split(text, ",")
	if len(fields) != 3 {
		return Invocation{}, fmt.Errorf("workload: line %d: want 3 fields, got %d", line, len(fields))
	}
	iatUS, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil || iatUS < 0 || iatUS > math.MaxInt64/int64(time.Microsecond) {
		return Invocation{}, fmt.Errorf("workload: line %d: bad iat %q", line, fields[0])
	}
	n, err := strconv.Atoi(fields[1])
	if err != nil || n < 1 {
		return Invocation{}, fmt.Errorf("workload: line %d: bad fib_n %q", line, fields[1])
	}
	if !model.Fits(n) {
		return Invocation{}, fmt.Errorf("workload: line %d: fib_n %d has no positive modeled duration", line, n)
	}
	mem, err := strconv.Atoi(fields[2])
	if err != nil || mem < 1 {
		return Invocation{}, fmt.Errorf("workload: line %d: bad mem_mb %q", line, fields[2])
	}
	return Invocation{
		Arrival:  time.Duration(iatUS) * time.Microsecond,
		FibN:     n,
		Duration: model.Duration(n),
		MemMB:    mem,
	}, nil
}

// SliceSource adapts a materialized invocation list to the Source shape.
func SliceSource(invs []Invocation) Source {
	return func(yield func(Invocation) bool) {
		for _, inv := range invs {
			if !yield(inv) {
				return
			}
		}
	}
}

// Materialize drains a source into a slice — the inverse of SliceSource.
func Materialize(src Source) []Invocation {
	var out []Invocation
	src(func(inv Invocation) bool {
		out = append(out, inv)
		return true
	})
	return out
}

// TaskPool builds simulator tasks from invocations and recycles finished
// ones, so a streaming run allocates task structs proportional to its
// peak concurrency rather than its total invocation count. Labels are
// cached per Fibonacci bucket (the label is a pure function of FibN). A
// pool is not safe for concurrent use; cluster runs use one per server.
type TaskPool struct {
	free   []*simkern.Task
	labels map[int]string
}

// NewTaskPool returns an empty pool.
func NewTaskPool() *TaskPool {
	return &TaskPool{labels: make(map[int]string)}
}

// Label returns the cached fib(n) label for a bucket.
func (p *TaskPool) Label(fibN int) string {
	l, ok := p.labels[fibN]
	if !ok {
		l = fmt.Sprintf("fib(%d)", fibN)
		p.labels[fibN] = l
	}
	return l
}

// Get returns a task carrying inv under the given id, reusing a recycled
// struct when one is free.
func (p *TaskPool) Get(inv Invocation, id simkern.TaskID) *simkern.Task {
	var t *simkern.Task
	if n := len(p.free); n > 0 {
		t = p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
	} else {
		t = &simkern.Task{}
	}
	t.ID = id
	t.Label = p.Label(inv.FibN)
	t.Kind = simkern.KindFunction
	t.Arrival = inv.Arrival
	t.Work = inv.Duration
	t.MemMB = inv.MemMB
	t.FibN = inv.FibN
	return t
}

// Put recycles a finished task back into the pool. It reports whether the
// task was accepted; live tasks are refused (Task.Recycle's contract) and
// left untouched.
func (p *TaskPool) Put(t *simkern.Task) bool {
	if t == nil || !t.Recycle() {
		return false
	}
	p.free = append(p.free, t)
	return true
}

// FreeLen returns the number of pooled free tasks (tests).
func (p *TaskPool) FreeLen() int { return len(p.free) }
