// Package sched models the host's CPU scheduling as it affects the
// paper's measurements: round-robin placement of guests onto cores,
// boot-time dilation from idle guests' background wakeups (Fig. 11),
// reported CPU utilization (Fig. 15), and a processor-sharing queue
// used by the use-case experiments (§7) for jobs that share cores.
package sched

import (
	"fmt"
	"time"

	"lightvm/internal/costs"
	"lightvm/internal/sim"
)

// Machine describes a testbed host (the paper uses three).
type Machine struct {
	Name      string
	Cores     int
	Dom0Cores int
	MemoryGB  int
}

// GuestCores returns the core IDs available to guests (Dom0 gets the
// first Dom0Cores).
func (m Machine) GuestCores() []int {
	out := make([]int, 0, m.Cores-m.Dom0Cores)
	for c := m.Dom0Cores; c < m.Cores; c++ {
		out = append(out, c)
	}
	return out
}

// Testbeds from the evaluation.
var (
	// Xeon4 is the Intel Xeon E5-1630 v3 (4 cores, 128 GB) used for
	// Figs. 4, 5, 9, 12, 13, 14, 15.
	Xeon4 = Machine{Name: "xeon-e5-1630v3", Cores: 4, Dom0Cores: 1, MemoryGB: 128}
	// Amd64 is the 4×AMD Opteron 6376 (64 cores, 128 GB) used for
	// Fig. 10 and the 8000-guest density test (4 cores to Dom0).
	Amd64 = Machine{Name: "amd-opteron-6376", Cores: 64, Dom0Cores: 4, MemoryGB: 128}
	// Xeon14 is the Intel Xeon E5-2690 v4 (14 cores, 64 GB) used for
	// the §7 use cases.
	Xeon14 = Machine{Name: "xeon-e5-2690v4", Cores: 14, Dom0Cores: 1, MemoryGB: 64}
	// Xeon4Ckpt is the checkpoint/migration split: 2 cores to Dom0.
	Xeon4Ckpt = Machine{Name: "xeon-e5-1630v3-ckpt", Cores: 4, Dom0Cores: 2, MemoryGB: 128}
)

// coreLoad aggregates idle-guest interference on one core.
type coreLoad struct {
	guests       int
	wakeRate     float64       // wakeups/s from all idle guests
	wakeWorkRate time.Duration // guest work per second of wall time
}

// Sched tracks guest placement and idle load per core.
type Sched struct {
	machine Machine
	cores   map[int]*coreLoad
	rrNext  int
	// utilDuty accumulates reported idle duty (fraction of one core)
	// across all guests; see Utilization.
	utilDuty float64
}

// New creates a scheduler for machine.
func New(machine Machine) *Sched {
	s := &Sched{machine: machine, cores: make(map[int]*coreLoad)}
	for _, c := range machine.GuestCores() {
		s.cores[c] = &coreLoad{}
	}
	return s
}

// Place assigns the next guest to a core round-robin (the paper pins
// VMs "to the VMs in a round-robin fashion").
// Guest cores are numbered contiguously after Dom0's, so the next one
// is computed rather than picked from GuestCores' slice.
func (s *Sched) Place() int {
	m := s.machine
	c := m.Dom0Cores + s.rrNext%(m.Cores-m.Dom0Cores)
	s.rrNext++
	return c
}

// AddGuest registers an idle guest's background load on core.
func (s *Sched) AddGuest(core int, wakeRatePerSec float64, wakeWork time.Duration, utilDuty float64) {
	cl, ok := s.cores[core]
	if !ok {
		cl = &coreLoad{}
		s.cores[core] = cl
	}
	cl.guests++
	cl.wakeRate += wakeRatePerSec
	cl.wakeWorkRate += time.Duration(wakeRatePerSec * float64(wakeWork))
	s.utilDuty += utilDuty
}

// RemoveGuest unregisters a guest's load.
func (s *Sched) RemoveGuest(core int, wakeRatePerSec float64, wakeWork time.Duration, utilDuty float64) {
	cl, ok := s.cores[core]
	if !ok {
		return
	}
	cl.guests--
	cl.wakeRate -= wakeRatePerSec
	cl.wakeWorkRate -= time.Duration(wakeRatePerSec * float64(wakeWork))
	s.utilDuty -= utilDuty
	if cl.guests < 0 {
		panic(fmt.Sprintf("sched: negative guest count on core %d", core))
	}
}

// Guests returns the number of guests placed on core.
func (s *Sched) Guests(core int) int {
	if cl, ok := s.cores[core]; ok {
		return cl.guests
	}
	return 0
}

// Dilation is the slowdown factor a busy task on core experiences
// from idle guests' wakeups: every wakeup steals its work plus two
// hypervisor context switches. Unikernels and containers don't wake
// when idle, so their cores stay at 1.0 — this is why Fig. 11's
// unikernel curve is flat while Tinyx's climbs.
func (s *Sched) Dilation(core int) float64 {
	cl, ok := s.cores[core]
	if !ok {
		return 1
	}
	stolenPerSec := float64(cl.wakeWorkRate) + cl.wakeRate*float64(2*costs.CtxSwitch)
	return 1 + stolenPerSec/float64(time.Second)
}

// RunWork sleeps for work dilated by the core's interference — the
// wall-clock time a guest needs to complete `work` of CPU on core.
func (s *Sched) RunWork(clock *sim.Clock, core int, work time.Duration) time.Duration {
	d := time.Duration(float64(work) * s.Dilation(core))
	clock.Sleep(d)
	return d
}

// Utilization reports host CPU utilization as a fraction of the whole
// machine (Fig. 15's metric, gathered via iostat + xentop): Dom0's
// baseline plus every idle guest's reported duty cycle. Hypervisor
// context-switch overhead is mostly invisible to those tools, so it
// is intentionally not included (the paper's Fig. 11 and Fig. 15
// measure different things; see DESIGN.md).
func (s *Sched) Utilization() float64 {
	total := costs.Dom0UtilBase + s.utilDuty
	max := float64(s.machine.Cores)
	if total > max {
		total = max
	}
	return total / max
}
