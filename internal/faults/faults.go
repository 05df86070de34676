// Package faults is the deterministic fault-injection layer: seeded
// per-server hazard processes schedule server crashes (all resident tasks
// killed, warm state destroyed) and straggler windows (a CPU slowdown
// factor folded into service demand the same way cold-start latency is),
// per-invocation timeouts abort overrunning attempts, and a retry policy
// with exponential backoff and deterministic jitter re-admits killed work
// through the streaming admit path.
//
// Everything is a pure function of (Config.Seed, server index): the
// routing layer and each server's in-kernel fault machine derive the same
// crash/straggler timeline independently, so the flat and sharded
// dataflows — which interleave scheduling differently — agree bit for
// bit. Crash sweeps and timeouts enter the kernel under the dedicated
// fault ordering class (simkern.SetFaultTimer), firing after every
// same-instant normal event, so a task completing exactly at a crash
// instant counts as completed on every dataflow. With the zero Config the
// layer is never constructed and no simulated decision changes.
package faults

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// Defaults applied by Config.withDefaults.
const (
	// DefaultDowntime is the outage length after each crash.
	DefaultDowntime = 30 * time.Second
	// DefaultStragglerDuration is the slowdown-window length.
	DefaultStragglerDuration = time.Minute
	// DefaultStragglerFactor is the CPU slowdown inside a window.
	DefaultStragglerFactor = 2.0
	// DefaultBackoffBase is the first-retry delay.
	DefaultBackoffBase = 100 * time.Millisecond
	// DefaultBackoffCap bounds the exponential backoff.
	DefaultBackoffCap = 10 * time.Second
)

// RetryPolicy governs re-admission of killed or timed-out invocations.
type RetryPolicy struct {
	// MaxAttempts is the total admission budget per invocation, first
	// attempt included; 0 or 1 means fail fast (no retries).
	MaxAttempts int
	// BackoffBase is the delay before the first retry; retry k waits
	// BackoffBase << (k-1), plus deterministic jitter in [0, delay/2).
	// Zero defaults to DefaultBackoffBase.
	BackoffBase time.Duration
	// BackoffCap bounds the exponential delay. Zero defaults to
	// DefaultBackoffCap.
	BackoffCap time.Duration
}

// Config is the fault plan: per-server hazard rates plus the recovery
// machinery. The zero value disables the layer entirely (no machines, no
// routing hooks, byte-for-byte the pre-fault behavior).
type Config struct {
	// Seed drives every hazard draw and every jitter. Independent of the
	// cluster's dispatch seed.
	Seed int64
	// CrashMTBF is each server's mean time between crashes (exponential
	// inter-arrival); zero disables crashes.
	CrashMTBF time.Duration
	// Downtime is the outage length after a crash; the server rejoins the
	// eligible set when it ends. Zero defaults to DefaultDowntime.
	Downtime time.Duration
	// StragglerMTBF is each server's mean time between straggler windows;
	// zero disables stragglers.
	StragglerMTBF time.Duration
	// StragglerDuration is each window's length. Zero defaults to
	// DefaultStragglerDuration.
	StragglerDuration time.Duration
	// StragglerFactor is the CPU slowdown inside a window (2.0 = work
	// takes twice as long). Zero defaults to DefaultStragglerFactor.
	StragglerFactor float64
	// Timeout is the default per-invocation deadline, measured from each
	// attempt's admission; workload.Invocation.TimeoutMS overrides it per
	// invocation. Zero means no fleet-wide timeout.
	Timeout time.Duration
	// Retry governs re-admission of killed/timed-out work.
	Retry RetryPolicy
	// Instrument threads the fault seam (machines, routing hooks, the
	// streamed dataflow) even when every rate above is zero — the
	// inertness-test knob proving the seam itself changes nothing.
	Instrument bool
}

// Enabled reports whether the fault layer should be constructed at all.
func (c Config) Enabled() bool {
	return c.CrashMTBF > 0 || c.StragglerMTBF > 0 || c.Timeout > 0 || c.Instrument
}

// Kills reports whether the plan can kill scheduled tasks (crashes or
// timeouts), which requires the scheduler to implement ghost.TaskEvictor.
// Straggler-only plans work under any scheduler.
func (c Config) Kills() bool { return c.CrashMTBF > 0 || c.Timeout > 0 }

// Validate rejects nonsensical plans.
func (c Config) Validate() error {
	if c.CrashMTBF < 0 || c.StragglerMTBF < 0 || c.Timeout < 0 {
		return fmt.Errorf("faults: negative rate (crash %v, straggler %v, timeout %v)",
			c.CrashMTBF, c.StragglerMTBF, c.Timeout)
	}
	if c.Downtime < 0 || c.StragglerDuration < 0 {
		return fmt.Errorf("faults: negative duration (downtime %v, straggler %v)",
			c.Downtime, c.StragglerDuration)
	}
	if c.StragglerFactor != 0 && c.StragglerFactor < 1 {
		return fmt.Errorf("faults: StragglerFactor %v < 1 would speed servers up", c.StragglerFactor)
	}
	if c.Retry.MaxAttempts < 0 || c.Retry.BackoffBase < 0 || c.Retry.BackoffCap < 0 {
		return fmt.Errorf("faults: negative retry policy %+v", c.Retry)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.Downtime == 0 {
		c.Downtime = DefaultDowntime
	}
	if c.StragglerDuration == 0 {
		c.StragglerDuration = DefaultStragglerDuration
	}
	if c.StragglerFactor == 0 {
		c.StragglerFactor = DefaultStragglerFactor
	}
	if c.Retry.BackoffBase == 0 {
		c.Retry.BackoffBase = DefaultBackoffBase
	}
	if c.Retry.BackoffCap == 0 {
		c.Retry.BackoffCap = DefaultBackoffCap
	}
	return c
}

// maxAttempts normalizes the admission budget (>= 1).
func (c Config) maxAttempts() int {
	if c.Retry.MaxAttempts < 1 {
		return 1
	}
	return c.Retry.MaxAttempts
}

// Backoff returns the delay before retry number attempt (1-based count of
// attempts already failed) of invocation id: exponential in the attempt,
// capped, plus jitter in [0, delay/2) derived only from (Seed, id,
// attempt) — bit-reproducible across runs. The result is never a whole
// number of microseconds, so a retry's arrival instant can never tie with
// a µs-grid arrival or booking boundary (same-instant ties between
// independently scheduled events are the one place the flat and sharded
// dataflows could disagree).
func (c Config) Backoff(id uint64, attempt int) time.Duration {
	base := c.Retry.BackoffBase
	if base <= 0 {
		base = DefaultBackoffBase
	}
	cap := c.Retry.BackoffCap
	if cap <= 0 {
		cap = DefaultBackoffCap
	}
	d := base
	for i := 1; i < attempt && d < cap; i++ {
		d *= 2
	}
	if d > cap {
		d = cap
	}
	h := jitterHash(uint64(c.Seed), id, uint64(attempt))
	d += time.Duration(h % uint64(d/2+1))
	return offGrid(d, h)
}

// offGrid nudges d off the microsecond grid using hash bits.
func offGrid(d time.Duration, h uint64) time.Duration {
	if d%time.Microsecond == 0 {
		d += time.Duration(h%999) + 1
	}
	return d
}

func jitterHash(seed, id, attempt uint64) uint64 {
	return splitmix(splitmix(splitmix(seed^0x6a09e667f3bcc908)^id) ^ attempt)
}

// splitmix is the splitmix64 output function — the deterministic,
// dependency-free mixer behind every hazard draw and jitter.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a splitmix64 stream.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	x := r.s
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// float returns a uniform draw in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// exp returns an exponential draw with the given mean.
func (r *rng) exp(mean time.Duration) time.Duration {
	return time.Duration(-math.Log(1-r.float()) * float64(mean))
}

// window is one fault interval: [start, end).
type window struct {
	start, end time.Duration
}

// Schedule is one server's materialized fault timeline: crash outages and
// straggler windows, generated lazily from the per-server hazard streams
// as queries reach further into simulated time. A Schedule is a pure
// function of (Config.Seed, server index): every layer that builds one
// for the same server sees the identical timeline. Not safe for
// concurrent use — each consumer builds its own.
type Schedule struct {
	cfg        Config
	crashRng   rng
	stragRng   rng
	crashes    []window
	stragglers []window
	crashGen   time.Duration // timeline generated through (crashes)
	stragGen   time.Duration // timeline generated through (stragglers)
}

// NewSchedule derives server s's timeline from cfg.
func NewSchedule(cfg Config, server int) *Schedule {
	cfg = cfg.withDefaults()
	base := splitmix(uint64(cfg.Seed) ^ 0x243f6a8885a308d3)
	return &Schedule{
		cfg:      cfg,
		crashRng: rng{s: splitmix(base ^ uint64(server)*0x9e3779b97f4a7c15 ^ 0xc)},
		stragRng: rng{s: splitmix(base ^ uint64(server)*0x9e3779b97f4a7c15 ^ 0x5)},
	}
}

// ensureCrashes extends the crash timeline through t.
func (s *Schedule) ensureCrashes(t time.Duration) {
	if s.cfg.CrashMTBF <= 0 {
		return
	}
	for s.crashGen <= t {
		start := s.crashGen + s.crashRng.exp(s.cfg.CrashMTBF)
		s.crashes = append(s.crashes, window{start: start, end: start + s.cfg.Downtime})
		s.crashGen = start + s.cfg.Downtime
	}
}

// ensureStragglers extends the straggler timeline through t.
func (s *Schedule) ensureStragglers(t time.Duration) {
	if s.cfg.StragglerMTBF <= 0 {
		return
	}
	for s.stragGen <= t {
		start := s.stragGen + s.stragRng.exp(s.cfg.StragglerMTBF)
		s.stragglers = append(s.stragglers, window{start: start, end: start + s.cfg.StragglerDuration})
		s.stragGen = start + s.cfg.StragglerDuration
	}
}

// findWindow returns the window in ws containing t, or nil.
func findWindow(ws []window, t time.Duration) *window {
	lo, hi := 0, len(ws)
	for lo < hi {
		mid := (lo + hi) / 2
		if ws[mid].end <= t {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(ws) && ws[lo].start <= t {
		return &ws[lo]
	}
	return nil
}

// DownAt reports whether the server is inside a crash outage at t, and
// when that outage ends.
func (s *Schedule) DownAt(t time.Duration) (until time.Duration, down bool) {
	s.ensureCrashes(t)
	if w := findWindow(s.crashes, t); w != nil {
		return w.end, true
	}
	return 0, false
}

// NextCrash returns the first crash instant strictly after t, or ok=false
// when crashes are disabled.
func (s *Schedule) NextCrash(t time.Duration) (time.Duration, bool) {
	if s.cfg.CrashMTBF <= 0 {
		return 0, false
	}
	s.ensureCrashes(t)
	for {
		i := sort.Search(len(s.crashes), func(i int) bool { return s.crashes[i].start > t })
		if i < len(s.crashes) {
			return s.crashes[i].start, true
		}
		s.ensureCrashes(s.crashGen + 1)
	}
}

// NextStraggler returns the first straggler-window start strictly after
// t, or ok=false when stragglers are disabled.
func (s *Schedule) NextStraggler(t time.Duration) (time.Duration, bool) {
	if s.cfg.StragglerMTBF <= 0 {
		return 0, false
	}
	s.ensureStragglers(t)
	for {
		i := sort.Search(len(s.stragglers), func(i int) bool { return s.stragglers[i].start > t })
		if i < len(s.stragglers) {
			return s.stragglers[i].start, true
		}
		s.ensureStragglers(s.stragGen + 1)
	}
}

// Factor returns the CPU slowdown factor in force at t (1 outside
// straggler windows).
func (s *Schedule) Factor(t time.Duration) float64 {
	if s.cfg.StragglerMTBF <= 0 {
		return 1
	}
	s.ensureStragglers(t)
	if findWindow(s.stragglers, t) != nil {
		return s.cfg.StragglerFactor
	}
	return 1
}

// SlowExtra returns the extra service demand a task of pristine duration
// base pays when it starts at t — demand × (factor − 1) when t falls in a
// straggler window, zero otherwise. Folded into routing demand and task
// work exactly like cold-start latency.
func (s *Schedule) SlowExtra(t time.Duration, base time.Duration) time.Duration {
	f := s.Factor(t)
	if f <= 1 {
		return 0
	}
	return time.Duration(float64(base) * (f - 1))
}

// Stats counts fault activity. Crashes and StragglerWindows are counted
// by the routing layer (one per window entered during the run); Kills,
// Retries, and GiveUps by the per-server machines.
type Stats struct {
	Crashes          int64 // crash windows entered
	Kills            int64 // task attempts killed (crash sweep, delivery-into-outage, timeout)
	Retries          int64 // re-admissions
	GiveUps          int64 // invocations abandoned after exhausting retries
	StragglerWindows int64 // straggler windows entered
}

// Accumulate folds o into s.
func (s *Stats) Accumulate(o Stats) {
	s.Crashes += o.Crashes
	s.Kills += o.Kills
	s.Retries += o.Retries
	s.GiveUps += o.GiveUps
	s.StragglerWindows += o.StragglerWindows
}
