// Package hv models the Xen hypervisor as seen by the control plane:
// domain lifecycle, guest memory, vCPUs, event channels, grant tables
// and — for LightVM's noxs — the per-domain device page (§5.1).
//
// Every entry point that would be a hypercall on real Xen charges
// costs.Hypercall (plus operation-specific work) to the virtual clock,
// so toolstack implementations built on top automatically account for
// their privilege crossings.
package hv

import (
	"errors"
	"fmt"

	"lightvm/internal/costs"
	"lightvm/internal/idtable"
	"lightvm/internal/mm"
	"lightvm/internal/sim"
)

// DomID identifies a domain. Dom0 is 0.
type DomID int

// State is a domain lifecycle state.
type State int

// Domain lifecycle states, mirroring Xen's.
const (
	StateCreated State = iota // shell exists, nothing loaded
	StatePaused               // built but not scheduled
	StateRunning
	StateSuspended
	StateShutdown
	StateDying
)

var stateNames = [...]string{"created", "paused", "running", "suspended", "shutdown", "dying"}

func (s State) String() string {
	if int(s) < len(stateNames) {
		return stateNames[s]
	}
	return fmt.Sprintf("state(%d)", int(s))
}

// Errors returned by hypercalls.
var (
	ErrNoSuchDomain  = errors.New("hv: no such domain")
	ErrBadState      = errors.New("hv: operation invalid in current domain state")
	ErrNoSuchPort    = errors.New("hv: no such event channel port")
	ErrNoSuchGrant   = errors.New("hv: no such grant reference")
	ErrDevPageFull   = errors.New("hv: device page full")
	ErrNotPrivileged = errors.New("hv: caller not privileged for this hypercall")
)

// VCPU is a virtual CPU bound to a physical core. Its index is its
// position in Domain.VCPUs.
type VCPU struct {
	Core int // physical core this vCPU is pinned to
}

// Domain is the hypervisor's view of a guest.
type Domain struct {
	ID       DomID
	State    State
	VCPUs    []VCPU
	MaxMem   uint64 // bytes
	MemBytes uint64

	// KernelEntry is the loaded image's (fake) entry point. The image
	// bytes are charged, not copied, so density experiments with 1.1 GB
	// Debian images stay tractable.
	KernelEntry uint64

	// DevPage is the noxs device page (nil until created).
	DevPage *DevicePage

	// SharedBytes counts memory mapped from the dedup share pool
	// (counted once host-wide); SharedKeys are the regions to release
	// on destroy.
	SharedBytes uint64
	SharedKeys  []string

	// ShutdownReason is set when the guest shuts down or suspends.
	ShutdownReason string
}

// Config describes a domain to create.
type Config struct {
	MaxMem uint64 // bytes
	VCPUs  int
	Cores  []int // physical cores to pin vCPUs to, round-robin
}

// Counters aggregates hypervisor activity for tests and breakdowns.
type Counters struct {
	Hypercalls uint64
	GrantMaps  uint64
}

// Hypervisor is the machine-wide monitor.
type Hypervisor struct {
	Clock *sim.Clock
	Mem   *mm.Allocator
	// Share is the content-keyed page-sharing pool backing the §9
	// memory-deduplication extension.
	Share *mm.SharePool

	// Domains, event channels and grants by id. Each table issues its
	// own ids, monotonic and never reused: Dom0 is 0, and ports and
	// grant refs start at 1.
	domains idtable.Table[DomID, *Domain]
	ports   idtable.Table[Port, channel]
	grants  idtable.Table[GrantRef, grant]

	Count Counters
}

// New creates a hypervisor managing hostMemBytes of RAM on clock.
// Dom0's base memory is reserved immediately.
func New(clock *sim.Clock, hostMemBytes uint64) *Hypervisor {
	h := &Hypervisor{
		Clock:  clock,
		Mem:    mm.New(hostMemBytes),
		ports:  idtable.From[Port, channel](1),
		grants: idtable.From[GrantRef, grant](1),
	}
	h.Share = mm.NewSharePool(h.Mem)
	dom0 := &Domain{ID: 0, State: StateRunning}
	dom0Bytes := uint64(costs.Dom0BaseMB * 1024 * 1024)
	if err := h.Mem.AllocBytes(dom0Bytes, mm.Owner(0)); err != nil {
		panic("hv: host too small for Dom0")
	}
	dom0.MemBytes = dom0Bytes
	h.domains.Put(dom0)
	return h
}

// charge advances the clock by one hypercall plus extra work.
func (h *Hypervisor) charge(extra sim.Duration) {
	h.Count.Hypercalls++
	h.Clock.Sleep(costs.Hypercall + extra)
}

// Domain returns the domain with the given ID.
func (h *Hypervisor) Domain(id DomID) (*Domain, error) {
	d := h.domains.Get(id)
	if d == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoSuchDomain, id)
	}
	return *d, nil
}

// NumDomains reports the number of live guest domains (excluding Dom0).
func (h *Hypervisor) NumDomains() int { return h.domains.Len() - 1 }

// EachDomain calls fn on every guest domain ID (Dom0 excluded) in
// ascending order, in place: no listing is built and no virtual time
// is charged. fn may destroy domains.
func (h *Hypervisor) EachDomain(fn func(DomID)) {
	h.domains.Each(func(id DomID, _ **Domain) {
		if id != 0 {
			fn(id)
		}
	})
}

// DomIDLimit is one past the highest domain ID issued so far. IDs are
// dense and never reused, so every domain this hypervisor ever held
// has an ID below it.
func (h *Hypervisor) DomIDLimit() DomID { return h.domains.Next() }

// CreateDomain is the domain-creation hypercall: it reserves an ID and
// management structures and pins vCPUs to cores. Memory is populated
// separately (PopulatePhysmap), matching the real split used by the
// split toolstack's prepare phase.
func (h *Hypervisor) CreateDomain(cfg Config) (*Domain, error) {
	if cfg.VCPUs <= 0 {
		cfg.VCPUs = 1
	}
	d := &Domain{State: StateCreated, MaxMem: cfg.MaxMem}
	d.ID = h.domains.Put(d)
	for i := 0; i < cfg.VCPUs; i++ {
		core := i
		if len(cfg.Cores) > 0 {
			core = cfg.Cores[i%len(cfg.Cores)]
		}
		d.VCPUs = append(d.VCPUs, VCPU{Core: core})
	}
	h.charge(costs.HypervisorReserve)
	return d, nil
}

// PopulatePhysmap allocates bytes of guest memory, charging the per-MB
// preparation cost (p2m setup, scrubbing bookkeeping).
func (h *Hypervisor) PopulatePhysmap(id DomID, bytes uint64) error {
	d, err := h.Domain(id)
	if err != nil {
		return err
	}
	if d.State == StateDying {
		return ErrBadState
	}
	if err := h.Mem.AllocBytes(bytes, mm.Owner(id)); err != nil {
		return err
	}
	d.MemBytes += bytes
	mb := float64(bytes) / (1024 * 1024)
	h.charge(sim.Duration(mb * float64(costs.MemReservePerMB)))
	return nil
}

// PopulateShared maps a content-keyed shared region into the domain
// (the §9 deduplication extension): the first guest pays the pages,
// later guests only pay the mapping hypercalls. The domain's memory
// is logically bytes larger, but host memory is charged once.
func (h *Hypervisor) PopulateShared(id DomID, key string, bytes uint64) error {
	d, err := h.Domain(id)
	if err != nil {
		return err
	}
	if d.State == StateDying {
		return ErrBadState
	}
	if _, err := h.Share.Acquire(key, bytes); err != nil {
		return err
	}
	d.SharedBytes += bytes
	d.SharedKeys = append(d.SharedKeys, key)
	d.MemBytes += bytes
	// Mapping existing pages is far cheaper than populating fresh
	// ones: no allocation, no scrubbing — p2m entries only.
	mb := float64(bytes) / (1024 * 1024)
	h.charge(sim.Duration(mb * float64(costs.MemReservePerMB) / 4))
	return nil
}

// LoadImage charges the parse+copy cost of a size-byte kernel image
// and marks the domain built (paused).
func (h *Hypervisor) LoadImage(id DomID, size uint64) error {
	d, err := h.Domain(id)
	if err != nil {
		return err
	}
	if d.State != StateCreated && d.State != StatePaused {
		return fmt.Errorf("%w: load into %v domain", ErrBadState, d.State)
	}
	if d.MemBytes == 0 {
		return fmt.Errorf("hv: domain %d has no memory populated", id)
	}
	mb := float64(size) / (1024 * 1024)
	h.charge(costs.ImageLoadBase + sim.Duration(mb*float64(costs.ImageLoadPerMB)))
	d.KernelEntry = 0xffffffff80000000
	d.State = StatePaused
	return nil
}

// Unpause schedules the domain; the guest begins booting.
func (h *Hypervisor) Unpause(id DomID) error {
	d, err := h.Domain(id)
	if err != nil {
		return err
	}
	if d.State != StatePaused && d.State != StateSuspended {
		return fmt.Errorf("%w: unpause %v domain", ErrBadState, d.State)
	}
	d.State = StateRunning
	h.charge(costs.VMBootKick)
	return nil
}

// Suspend marks the domain suspended (invoked after the guest
// acknowledges the suspend request).
func (h *Hypervisor) Suspend(id DomID, reason string) error {
	d, err := h.Domain(id)
	if err != nil {
		return err
	}
	if d.State != StateRunning && d.State != StatePaused {
		return fmt.Errorf("%w: suspend %v domain", ErrBadState, d.State)
	}
	d.State = StateSuspended
	d.ShutdownReason = reason
	h.charge(0)
	return nil
}

// DestroyDomain tears the domain down and releases its memory, event
// channels and grants.
func (h *Hypervisor) DestroyDomain(id DomID) error {
	if id == 0 {
		return ErrNotPrivileged
	}
	d, err := h.Domain(id)
	if err != nil {
		return err
	}
	d.State = StateDying
	h.ports.Each(func(p Port, ch *channel) {
		if ch.owner == id || ch.peer == id {
			h.ports.Del(p)
		}
	})
	h.grants.Each(func(r GrantRef, g *grant) {
		// Both endpoints release: a dying guest's mappings of Dom0
		// backend grants (owner=0, peer=guest) must not outlive it, or
		// the grant table fills with entries no one can ever end.
		if g.owner == id || g.peer == id {
			h.grants.Del(r)
		}
	})
	h.Mem.FreeOwner(mm.Owner(id))
	for _, key := range d.SharedKeys {
		if err := h.Share.Release(key); err != nil {
			return fmt.Errorf("hv: destroy %d: %w", id, err)
		}
	}
	h.domains.Del(id)
	// Teardown walks the page lists; charge proportional to memory.
	mb := float64(d.MemBytes) / (1024 * 1024)
	h.charge(sim.Duration(mb * float64(costs.MemReservePerMB) / 2))
	return nil
}

// UsedMemBytes reports total allocated host memory (Dom0 + guests).
func (h *Hypervisor) UsedMemBytes() uint64 { return h.Mem.UsedBytes() }
