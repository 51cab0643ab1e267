// Package core assembles the complete LightVM host: the hypervisor and
// its control planes (xl / chaos / split / noxs) with the Dom0 bridge,
// the Docker-like container engine and the fork/exec process runner —
// everything a paper experiment or a library user needs on one
// simulated machine.
package core

import (
	"fmt"
	"time"

	"lightvm/internal/container"
	"lightvm/internal/guest"
	"lightvm/internal/migrate"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
	"lightvm/internal/toolstack"
	"lightvm/internal/trace"
)

// Host is one simulated machine.
type Host struct {
	Clock   *sim.Clock
	Machine sched.Machine
	Env     *toolstack.Env
	Docker  *container.Engine
	Procs   *container.ProcessRunner
	RNG     *sim.RNG

	drivers map[toolstack.Mode]toolstack.Driver
}

// NewHost builds a host on machine; seed fixes all stochastic
// behaviour (process-spawn tails etc.), keeping runs reproducible.
func NewHost(machine sched.Machine, seed uint64) (*Host, error) {
	clock := sim.NewClock()
	return NewHostOn(clock, machine, seed)
}

// NewHostOn builds a host on an existing clock (migration experiments
// need two hosts sharing one timeline).
func NewHostOn(clock *sim.Clock, machine sched.Machine, seed uint64) (*Host, error) {
	h := &Host{
		Clock:   clock,
		Machine: machine,
		Env:     toolstack.NewEnv(clock, machine),
		RNG:     sim.NewRNG(seed),
		drivers: make(map[toolstack.Mode]toolstack.Driver),
	}
	docker, err := container.NewEngine(clock, h.Env.HV.Mem)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	docker.Pull(container.MicropythonImage())
	docker.Pull(container.NoopImage())
	h.Docker = docker
	h.Procs = container.NewProcessRunner(clock, h.Env.HV.Mem, h.RNG)
	return h, nil
}

// Driver returns (and caches) the toolstack for a mode. Note that xl
// and chaos reconfigure the vif hotplug mechanism when constructed, so
// a host should stick to one mode per experiment, as the paper does.
func (h *Host) Driver(mode toolstack.Mode) toolstack.Driver {
	d, ok := h.drivers[mode]
	if !ok {
		d = h.Env.ForMode(mode)
		h.drivers[mode] = d
	}
	return d
}

// EnsureFlavor registers an image's shell flavor with the split-
// toolstack pool and fills it; call before measuring split-mode
// creations, as the chaos daemon does on configuration.
func (h *Host) EnsureFlavor(img guest.Image, mode toolstack.Mode) error {
	if !mode.UsesSplit() {
		return nil
	}
	// Register rather than Take: a probing Take would pull a shell out
	// of the pool with no way to put it back, leaking its domain.
	h.Env.Pool.Register(img, mode.UsesStore())
	return h.Env.Pool.Replenish()
}

// Replenish tops up the shell pool (the daemon's background beat; the
// experiment harness calls it between measured creations).
func (h *Host) Replenish() error { return h.Env.Pool.Replenish() }

// EnableMemDedup turns on the §9 memory-sharing extension: unikernel
// guests booted from the same image share its resident pages.
func (h *Host) EnableMemDedup() { h.Env.MemDedup = true }

// EnableTrace attaches an operation trace (max 0 = default cap) and
// returns it.
func (h *Host) EnableTrace(max int) *trace.Log {
	h.Env.Trace = trace.New(h.Clock, max)
	return h.Env.Trace
}

// CreateVM creates and boots a guest with the mode's toolstack.
func (h *Host) CreateVM(mode toolstack.Mode, name string, img guest.Image) (*toolstack.VM, error) {
	return h.Driver(mode).Create(name, img)
}

// DestroyVM tears a guest down.
func (h *Host) DestroyVM(vm *toolstack.VM) error {
	return h.Driver(vm.Mode).Destroy(vm)
}

// CloneVM forks a running guest SnowFlock-style: the child resumes
// from the parent's state sharing its memory copy-on-write. See
// toolstack.Env.CloneVM.
func (h *Host) CloneVM(parent *toolstack.VM, name string) (*toolstack.VM, error) {
	return h.Env.CloneVM(parent, name)
}

// Save checkpoints a VM.
func (h *Host) Save(vm *toolstack.VM) (*migrate.Checkpoint, time.Duration, error) {
	return migrate.Save(h.Env, vm)
}

// Restore resumes a checkpoint on this host.
func (h *Host) Restore(cp *migrate.Checkpoint) (*toolstack.VM, time.Duration, error) {
	return migrate.Restore(h.Env, cp)
}

// MigrateTo live-migrates a VM to dst (same clock required).
func (h *Host) MigrateTo(dst *Host, vm *toolstack.VM) (*toolstack.VM, time.Duration, error) {
	return migrate.Migrate(h.Env, dst.Env, vm)
}

// VMs reports tracked guests.
func (h *Host) VMs() int { return h.Env.VMs() }

// MemoryUsedBytes reports total host memory in use (Dom0 + guests +
// containers + processes; they all share the same allocator).
func (h *Host) MemoryUsedBytes() uint64 { return h.Env.HV.UsedMemBytes() }

// CPUUtilization reports the Fig. 15 metric as a fraction of the
// machine.
func (h *Host) CPUUtilization() float64 { return h.Env.Sched.Utilization() }

// GuestTableRow summarizes one catalog image for the §3/§6 inventory.
type GuestTableRow struct {
	Name        string
	Kind        guest.Kind
	ImageMB     float64
	RuntimeMB   float64
	BootWork    time.Duration
	DeviceCount int
}

// GuestTable returns the guest inventory rows.
func GuestTable() []GuestTableRow {
	var out []GuestTableRow
	for _, im := range guest.Catalog() {
		out = append(out, GuestTableRow{
			Name:        im.Name,
			Kind:        im.Kind,
			ImageMB:     float64(im.SizeBytes) / (1 << 20),
			RuntimeMB:   float64(im.MemBytes) / (1 << 20),
			BootWork:    im.BootWork,
			DeviceCount: len(im.Devices),
		})
	}
	return out
}
