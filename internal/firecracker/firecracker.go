// Package firecracker simulates the paper's microVM deployment mode
// (§VI-E): every function invocation launches a Firecracker microVM, and a
// microVM is not one schedulable entity but several — a VMM/boot thread,
// a vCPU thread running the guest kernel plus the function body, and an IO
// thread — all of which are placed under the enclave's scheduling policy
// ("we schedule all these threads under our custom ghOSt policies").
//
// The fleet also models the resource wall the paper hit: each microVM pins
// guest memory plus VMM overhead for its lifetime, and once the server's
// memory is exhausted further launches fail ("some microVM instances fail
// to launch successfully because we run out of resources" — the paper
// capped out at 2,952 microVMs on a 512 GB machine).
//
// Fleet wraps an inner scheduling policy: it intercepts the delegation
// message stream to run the VM lifecycle state machine and forwards
// everything else untouched, so any policy (CFS, FIFO, hybrid, ...) can
// schedule microVM threads unmodified.
package firecracker

import (
	"fmt"
	"iter"
	"time"

	"github.com/faassched/faassched/internal/ghost"
	"github.com/faassched/faassched/internal/metrics"
	"github.com/faassched/faassched/internal/simkern"
	"github.com/faassched/faassched/internal/workload"
)

// VMConfig models one microVM's footprint.
type VMConfig struct {
	// BootCPU is the VMM thread's CPU demand to boot the microVM; the
	// vCPU thread only starts once boot completes. Firecracker reports
	// ~125 ms to start a microVM; the default models 50 ms of CPU within
	// that wall-clock figure.
	BootCPU time.Duration
	// GuestOverhead is added to the function's CPU demand inside the vCPU
	// thread (guest kernel work).
	GuestOverhead time.Duration
	// IOWork is the IO thread's CPU demand per invocation.
	IOWork time.Duration
	// VMMOverheadMB is memory consumed beyond the function's allocation.
	VMMOverheadMB int
	// MinGuestMB floors the guest memory size.
	MinGuestMB int
}

// DefaultVMConfig returns the calibration used by the Fig 21/22
// experiments.
func DefaultVMConfig() VMConfig {
	return VMConfig{
		BootCPU:       50 * time.Millisecond,
		GuestOverhead: 10 * time.Millisecond,
		IOWork:        5 * time.Millisecond,
		VMMOverheadMB: 48,
		MinGuestMB:    128,
	}
}

// Config configures a Fleet.
type Config struct {
	// ServerMemMB is the machine's memory budget; zero defaults to the
	// paper's 512 GB server.
	ServerMemMB int
	// Recycle frees a microVM's memory when its function completes. The
	// paper's experiment kept VMs resident (the 2,952 ceiling is a total,
	// not a concurrency level), so the default is false.
	Recycle bool
	// VM is the per-VM footprint model.
	VM VMConfig
}

// DefaultServerMemMB matches the paper's 512 GB testbed.
const DefaultServerMemMB = 512 * 1024

func (c Config) withDefaults() Config {
	if c.ServerMemMB == 0 {
		c.ServerMemMB = DefaultServerMemMB
	}
	if c.VM == (VMConfig{}) {
		c.VM = DefaultVMConfig()
	}
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.ServerMemMB < 1 {
		return fmt.Errorf("firecracker: ServerMemMB must be >= 1, got %d", c.ServerMemMB)
	}
	if c.VM.BootCPU <= 0 || c.VM.GuestOverhead < 0 || c.VM.IOWork < 0 {
		return fmt.Errorf("firecracker: invalid VM thread costs %+v", c.VM)
	}
	if c.VM.VMMOverheadMB < 0 || c.VM.MinGuestMB < 1 {
		return fmt.Errorf("firecracker: invalid VM memory model %+v", c.VM)
	}
	return nil
}

// vmState tracks one microVM through its lifecycle.
type vmState struct {
	id    int
	memMB int
	boot  *simkern.Task
	vcpu  *simkern.Task
	io    *simkern.Task
}

// Fleet is the microVM lifecycle manager wrapped around an inner policy.
type Fleet struct {
	cfg   Config
	inner ghost.Policy
	env   *ghost.Env

	vms      []*vmState
	byBoot   map[simkern.TaskID]*vmState
	byVCPU   map[simkern.TaskID]*vmState
	memUsed  int
	peakMem  int
	launched int
	failed   int

	// Streaming mode (Stream): VM states are built lazily as the feeder
	// pulls boot tasks, lifecycle map entries are pruned as VMs retire,
	// and failed launches push their Failed record into sink directly —
	// an aborted task emits no TASK_DEAD, so the stream retirer would
	// never see it (the invariant behind simrun.ExecStream's AbortTask
	// precondition, discharged here by the fleet itself).
	streaming bool
	sink      metrics.Sink
}

var _ ghost.Policy = (*Fleet)(nil)

// NewFleet wraps inner with microVM lifecycle management.
func NewFleet(inner ghost.Policy, cfg Config) (*Fleet, error) {
	if inner == nil {
		return nil, fmt.Errorf("firecracker: nil inner policy")
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Fleet{
		cfg:    cfg.withDefaults(),
		inner:  inner,
		byBoot: make(map[simkern.TaskID]*vmState),
		byVCPU: make(map[simkern.TaskID]*vmState),
	}, nil
}

// Name implements ghost.Policy.
func (f *Fleet) Name() string { return "firecracker+" + f.inner.Name() }

// Attach implements ghost.Policy.
func (f *Fleet) Attach(env *ghost.Env) {
	f.env = env
	f.inner.Attach(env)
}

// Unwrap returns the inner policy; the enclave finds its Ticker through
// it. Refused launches abort inside message dispatch, after which the
// enclave re-evaluates the tick horizon anyway.
func (f *Fleet) Unwrap() ghost.Policy { return f.inner }

// newVM builds microVM i's state for inv. Task IDs are assigned as 3·i+1
// (boot), 3·i+2 (vCPU), 3·i+3 (IO) so records remain traceable to
// invocations on both the materialized and the streaming path.
func (f *Fleet) newVM(i int, inv workload.Invocation) *vmState {
	guestMB := inv.MemMB
	if guestMB < f.cfg.VM.MinGuestMB {
		guestMB = f.cfg.VM.MinGuestMB
	}
	vm := &vmState{
		id:    i,
		memMB: guestMB + f.cfg.VM.VMMOverheadMB,
		boot: &simkern.Task{
			ID:      simkern.TaskID(3*i + 1),
			Label:   fmt.Sprintf("vm%d-boot", i),
			Kind:    simkern.KindVMM,
			Arrival: inv.Arrival,
			Work:    f.cfg.VM.BootCPU,
			MemMB:   inv.MemMB,
			VMID:    i,
		},
		// The vCPU task is created up front so launch failures can
		// surface as failed function records, but it is only added to
		// the kernel when boot completes.
		vcpu: &simkern.Task{
			ID:    simkern.TaskID(3*i + 2),
			Label: fmt.Sprintf("vm%d-fib(%d)", i, inv.FibN),
			Kind:  simkern.KindVCPU,
			Work:  inv.Duration + f.cfg.VM.GuestOverhead,
			MemMB: inv.MemMB,
			FibN:  inv.FibN,
			VMID:  i,
		},
	}
	if f.cfg.VM.IOWork > 0 {
		vm.io = &simkern.Task{
			ID:    simkern.TaskID(3*i + 3),
			Label: fmt.Sprintf("vm%d-io", i),
			Kind:  simkern.KindIO,
			Work:  f.cfg.VM.IOWork,
			VMID:  i,
		}
	}
	f.byBoot[vm.boot.ID] = vm
	f.byVCPU[vm.vcpu.ID] = vm
	return vm
}

// Launch registers one microVM per invocation with the kernel — the
// materialized path: every VM state and its three thread tasks exist
// before the clock starts.
func (f *Fleet) Launch(kernel *simkern.Kernel, invs []workload.Invocation) error {
	for i, inv := range invs {
		vm := f.newVM(i, inv)
		f.vms = append(f.vms, vm)
		if err := kernel.AddTask(vm.boot); err != nil {
			return fmt.Errorf("firecracker: launch vm %d: %w", i, err)
		}
	}
	return nil
}

// Stream is Launch's lazy sibling: it returns a task source yielding one
// boot task per invocation as the stream feeder pulls, so VM states
// materialize only inside the look-ahead window. sink receives the
// Failed record of every launch refused for memory (the successful path
// retires vCPU records through the stream retirer as usual), and
// lifecycle state is pruned as VMs finish — peak memory tracks live VMs,
// not the workload length.
func (f *Fleet) Stream(src workload.Source, sink metrics.Sink) func() (*simkern.Task, bool) {
	f.streaming = true
	f.sink = sink
	next, stop := iter.Pull(iter.Seq[workload.Invocation](src))
	i := 0
	return func() (*simkern.Task, bool) {
		inv, ok := next()
		if !ok {
			stop()
			return nil, false
		}
		vm := f.newVM(i, inv)
		i++
		return vm.boot, true
	}
}

// OnMessage implements ghost.Policy: run the VM lifecycle, forward the
// rest.
func (f *Fleet) OnMessage(m ghost.Message) {
	switch m.Type {
	case ghost.MsgTaskNew:
		if vm, ok := f.byBoot[m.Task.ID]; ok && m.Task.Kind == simkern.KindVMM {
			if !f.admit(vm) {
				return // launch failed; nothing reaches the inner policy
			}
		}
	case ghost.MsgTaskDead:
		if vm, ok := f.byBoot[m.Task.ID]; ok && m.Task.Kind == simkern.KindVMM {
			f.booted(vm)
			if f.streaming {
				delete(f.byBoot, m.Task.ID)
			}
		}
		if vm, ok := f.byVCPU[m.Task.ID]; ok {
			if f.cfg.Recycle {
				f.memUsed -= vm.memMB
			}
			if f.streaming {
				delete(f.byVCPU, m.Task.ID)
			}
		}
	}
	f.inner.OnMessage(m)
}

// admit reserves memory for vm; on exhaustion the launch fails: the boot
// task is aborted and the never-to-run vCPU task surfaces as a failed
// invocation (the paper's horizontal CDF offset) — on the materialized
// path by registering and aborting it so metrics.Collect reports it, on
// the streaming path by pushing its Failed record into the sink directly
// (aborted tasks emit no TASK_DEAD for the retirer to see).
func (f *Fleet) admit(vm *vmState) bool {
	if f.memUsed+vm.memMB > f.cfg.ServerMemMB {
		f.failed++
		_ = f.env.AbortTask(vm.boot)
		if f.streaming {
			f.sink.Push(metrics.Record{
				ID:     uint64(vm.vcpu.ID),
				Label:  vm.vcpu.Label,
				MemMB:  vm.vcpu.MemMB,
				FibN:   vm.vcpu.FibN,
				Failed: true,
			})
			delete(f.byBoot, vm.boot.ID)
			delete(f.byVCPU, vm.vcpu.ID)
			return false
		}
		vm.vcpu.Arrival = vm.boot.Arrival
		if err := f.env.AddTask(vm.vcpu); err == nil {
			_ = f.env.AbortTask(vm.vcpu)
		}
		return false
	}
	f.memUsed += vm.memMB
	if f.memUsed > f.peakMem {
		f.peakMem = f.memUsed
	}
	f.launched++
	return true
}

// booted releases the guest threads once the VMM finishes booting.
func (f *Fleet) booted(vm *vmState) {
	vm.vcpu.Arrival = f.env.Now()
	if err := f.env.AddTask(vm.vcpu); err != nil {
		// Unreachable in-sim; surface loudly in tests.
		panic(fmt.Sprintf("firecracker: add vcpu for vm %d: %v", vm.id, err))
	}
	if vm.io != nil {
		vm.io.Arrival = f.env.Now()
		if err := f.env.AddTask(vm.io); err != nil {
			panic(fmt.Sprintf("firecracker: add io for vm %d: %v", vm.id, err))
		}
	}
}

// Launched returns the number of microVMs that got memory.
func (f *Fleet) Launched() int { return f.launched }

// Failed returns the number of microVM launches refused for lack of
// memory.
func (f *Fleet) Failed() int { return f.failed }

// MemUsedMB returns the currently reserved memory.
func (f *Fleet) MemUsedMB() int { return f.memUsed }

// PeakMemMB returns the peak reserved memory.
func (f *Fleet) PeakMemMB() int { return f.peakMem }

// Capacity returns how many average-size microVMs fit in ServerMemMB given
// an average guest size — a planning helper for experiments.
func (f *Fleet) Capacity(avgGuestMB int) int {
	if avgGuestMB < f.cfg.VM.MinGuestMB {
		avgGuestMB = f.cfg.VM.MinGuestMB
	}
	return f.cfg.ServerMemMB / (avgGuestMB + f.cfg.VM.VMMOverheadMB)
}
