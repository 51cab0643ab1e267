// Package cluster manages a fleet of LightVM hosts sharing one virtual
// timeline — the mobile-edge deployment of §7.1, where "one or a few
// machines" per cell run thousands of per-subscriber VMs and "users
// enter and leave the cell continuously, so it is critical to be able
// to instantiate, terminate and migrate personal firewalls quickly and
// cheaply, following the user through the mobile network".
//
// Beyond the paper's clean-failure model (FailHost/Failover), the
// cluster carries a gray-failure plane: a heartbeat health monitor
// (health.go) that detects slow, partitioned and flapping members on
// the virtual clock, and an epoch/lease fence (toolstack/lease.go)
// that keeps detection mistakes from ever double-running a domain.
//
// Concurrency: a Cluster is one timeline, owned by one goroutine at a
// time, like the sim.Clock it shares with its hosts; it takes no
// locks. Health-monitor ticks are clock events, so they run on
// whichever goroutine advances the clock — inside a Cluster method or
// a plain Clock.Sleep — and see the placement table that goroutine
// sees. The sharded controller (sharded.go) is the one place a
// cluster's hosts run on several workers, and it hands each host to
// one worker at a time through sim.Engine.
package cluster

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"lightvm/internal/core"
	"lightvm/internal/costs"
	"lightvm/internal/guest"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
	"lightvm/internal/toolstack"
)

// Errors.
var (
	ErrNoHosts       = errors.New("cluster: no hosts")
	ErrUnknownHost   = errors.New("cluster: unknown host")
	ErrUnknownVM     = errors.New("cluster: unknown VM")
	ErrDuplicateHost = errors.New("cluster: duplicate host")
	ErrHostFailed    = errors.New("cluster: host has failed")
	// ErrClusterSaturated is backpressure: members exist but none is
	// healthy enough to take the work — every candidate is suspect,
	// dead or quarantined. Callers should retry later rather than pile
	// onto degraded capacity.
	ErrClusterSaturated = errors.New("cluster: no healthy host (saturated)")
	// ErrPartitioned rejects an operation that needs a cut edge of the
	// reachability matrix (e.g. migrating between partitioned hosts).
	ErrPartitioned = errors.New("cluster: hosts partitioned")
)

// Cluster is a set of hosts on one clock with a VM placement table.
type Cluster struct {
	Clock *sim.Clock

	hosts     map[string]*core.Host
	hostNames []string          // insertion order, for deterministic placement
	placement map[string]string // VM name → host name
	failed    map[string]bool   // hosts marked dead by FailHost
	hostMode  map[string]toolstack.Mode

	health *healthMonitor // nil until EnableHealth
	// opDepth counts cluster operations currently in the toolstack /
	// core layers (create, migrate, destroy, scrub). Health ticks that
	// fire from a clock advance nested inside one of those operations
	// must not run a pass — the pass would re-enter toolstack state the
	// operation has only half mutated — so healthTick skips while > 0.
	opDepth int

	// epochs is the authoritative per-VM placement epoch the toolstack
	// fence validates claims against.
	epochs map[string]uint64
}

// New creates an empty cluster on clock.
func New(clock *sim.Clock) *Cluster {
	return &Cluster{
		Clock:     clock,
		hosts:     make(map[string]*core.Host),
		placement: make(map[string]string),
		failed:    make(map[string]bool),
		hostMode:  make(map[string]toolstack.Mode),
		epochs:    make(map[string]uint64),
	}
}

// AddHost brings a machine into the cluster.
func (c *Cluster) AddHost(name string, machine sched.Machine, seed uint64) (*core.Host, error) {
	if _, dup := c.hosts[name]; dup {
		return nil, fmt.Errorf("%w: %q", ErrDuplicateHost, name)
	}
	h, err := core.NewHostOn(c.Clock, machine, seed)
	if err != nil {
		return nil, err
	}
	c.hosts[name] = h
	c.hostNames = append(c.hostNames, name)
	if c.health != nil {
		c.health.addHost(name, c.Clock.Now())
		c.armLease(name)
	}
	return h, nil
}

// Host returns a member by name.
func (c *Cluster) Host(name string) (*core.Host, error) {
	h, ok := c.hosts[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, name)
	}
	if c.failed[name] {
		return nil, fmt.Errorf("%w: %q", ErrHostFailed, name)
	}
	return h, nil
}

// Hosts lists member names in join order.
func (c *Cluster) Hosts() []string {
	return append([]string(nil), c.hostNames...)
}

// HostOf reports where a VM runs.
func (c *Cluster) HostOf(vmName string) (string, error) {
	host, ok := c.placement[vmName]
	if !ok {
		return "", fmt.Errorf("%w: %q", ErrUnknownVM, vmName)
	}
	return host, nil
}

// VMs reports the cluster-wide guest count.
func (c *Cluster) VMs() int {
	return len(c.placement)
}

// pick returns candidate hosts ordered by load: fewest VMs first, most
// free memory as the tie-breaker, join order as the final tie. Failed
// members are out; so is anything the health monitor holds
// in a non-alive state (suspect, dead, quarantined).
func (c *Cluster) pick() []string {
	names := make([]string, 0, len(c.hostNames))
	for _, n := range c.hostNames {
		if c.failed[n] || c.Health(n) != HealthAlive {
			continue
		}
		names = append(names, n)
	}
	sort.SliceStable(names, func(i, j int) bool {
		hi, hj := c.hosts[names[i]], c.hosts[names[j]]
		if hi.VMs() != hj.VMs() {
			return hi.VMs() < hj.VMs()
		}
		return hi.MemoryUsedBytes() < hj.MemoryUsedBytes()
	})
	return names
}

// degraded reports whether any live member was excluded from placement
// for health reasons — the condition that turns "no hosts" into
// "saturated, try later".
func (c *Cluster) degraded() bool {
	for _, n := range c.hostNames {
		if !c.failed[n] && c.Health(n) != HealthAlive {
			return true
		}
	}
	return false
}

// Place creates a VM on the least-loaded healthy host, falling back to
// the next candidate if a host is out of resources. It returns the VM
// and the host it landed on; ErrClusterSaturated when only degraded
// capacity remains.
func (c *Cluster) Place(mode toolstack.Mode, vmName string, img guest.Image) (*toolstack.VM, string, error) {
	if _, dup := c.placement[vmName]; dup {
		return nil, "", fmt.Errorf("cluster: VM %q already placed", vmName)
	}
	cands := c.pick()
	if len(cands) == 0 {
		if c.degraded() {
			return nil, "", fmt.Errorf("%w: placing %q", ErrClusterSaturated, vmName)
		}
		return nil, "", ErrNoHosts
	}
	c.opDepth++
	defer func() { c.opDepth-- }()
	var lastErr error
	for _, name := range cands {
		h := c.hosts[name]
		start := c.Clock.Now()
		if err := h.EnsureFlavor(img, mode); err != nil {
			lastErr = err
			continue
		}
		vm, err := h.CreateVM(mode, vmName, img)
		if err != nil {
			lastErr = err
			continue
		}
		c.chargeSlow(start, name)
		c.placement[vmName] = name
		c.grantLease(name, vmName, mode)
		return vm, name, nil
	}
	return nil, "", fmt.Errorf("cluster: no host could place %q: %w", vmName, lastErr)
}

// Move live-migrates a VM to another host (the subscriber handover).
// Both endpoints must be healthy: a failed or dead-declared source is
// rejected with ErrHostFailed (there is nothing trustworthy to migrate
// from), a degraded destination with ErrClusterSaturated, and a cut
// source↔destination edge with ErrPartitioned.
func (c *Cluster) Move(vmName, dstName string) (time.Duration, error) {
	srcName, ok := c.placement[vmName]
	if !ok {
		return 0, fmt.Errorf("%w: %q", ErrUnknownVM, vmName)
	}
	if c.failed[srcName] || c.Health(srcName) == HealthDead {
		return 0, fmt.Errorf("%w: source %q", ErrHostFailed, srcName)
	}
	dst, err := c.Host(dstName)
	if err != nil {
		return 0, err
	}
	if st := c.Health(dstName); st != HealthAlive {
		return 0, fmt.Errorf("%w: destination %q is %s", ErrClusterSaturated, dstName, st)
	}
	if !c.reachable(srcName, dstName) {
		return 0, fmt.Errorf("%w: %q and %q", ErrPartitioned, srcName, dstName)
	}
	if srcName == dstName {
		return 0, fmt.Errorf("cluster: VM %q already on %q", vmName, dstName)
	}
	src := c.hosts[srcName]
	vm, err := src.Env.VM(vmName)
	if err != nil {
		return 0, err
	}
	c.opDepth++
	defer func() { c.opDepth-- }()
	start := c.Clock.Now()
	_, d, err := src.MigrateTo(dst, vm)
	if err != nil {
		return 0, err
	}
	c.chargeSlow(start, srcName, dstName)
	src.Env.RevokeLease(vmName, vm.Mode.UsesStore())
	c.placement[vmName] = dstName
	c.grantLease(dstName, vmName, vm.Mode)
	return d, nil
}

// Destroy removes a VM wherever it runs.
func (c *Cluster) Destroy(vmName string) error {
	hostName, ok := c.placement[vmName]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownVM, vmName)
	}
	h := c.hosts[hostName]
	vm, err := h.Env.VM(vmName)
	if err != nil {
		return err
	}
	mode := vm.Mode
	c.opDepth++
	err = h.DestroyVM(vm)
	c.opDepth--
	if err != nil {
		return err
	}
	h.Env.RevokeLease(vmName, mode.UsesStore())
	delete(c.epochs, vmName)
	delete(c.placement, vmName)
	return nil
}

// LostVM describes a guest that was running on a failed host, with
// enough of its configuration to re-instantiate it elsewhere.
type LostVM struct {
	Name  string
	Mode  toolstack.Mode
	Image guest.Image
}

// FailHost marks a member as dead — a whole-machine failure. Its
// guests are gone, it takes no further placements, and Host/Move
// reject it with ErrHostFailed. The lost VMs' descriptors are returned
// sorted by name, ready for Failover.
func (c *Cluster) FailHost(name string) ([]LostVM, error) {
	h, ok := c.hosts[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownHost, name)
	}
	if c.failed[name] {
		return nil, fmt.Errorf("%w: %q", ErrHostFailed, name)
	}
	c.failed[name] = true
	h.Env.MarkDead() // frozen corpse state is not audited by FsckTracked
	var lost []LostVM
	for _, vm := range h.Env.AllVMs() { // sorted by name
		if c.placement[vm.Name] != name {
			continue
		}
		delete(c.placement, vm.Name)
		lost = append(lost, LostVM{Name: vm.Name, Mode: vm.Mode, Image: vm.Image})
	}
	return lost, nil
}

// Failed reports whether a member has been marked dead.
func (c *Cluster) Failed(name string) bool {
	return c.failed[name]
}

// Failover re-instantiates the lost VMs on the surviving members via
// the usual least-loaded placement, after charging the failure
// detection delay. It returns the total recovery time (detection plus
// re-creation) and how many VMs came back; a placement error aborts
// the sweep with the partial count. Failover is idempotent: VMs that
// are already placed again (a Place in between, a monitor-driven
// recovery, or a repeated call) are skipped, not errors.
func (c *Cluster) Failover(lost []LostVM) (time.Duration, int, error) {
	start := c.Clock.Now()
	c.Clock.Sleep(costs.HostFailureDetect)
	recovered := 0
	for _, l := range lost {
		if _, placed := c.placement[l.Name]; placed {
			continue
		}
		if _, _, err := c.Place(l.Mode, l.Name, l.Image); err != nil {
			return time.Duration(c.Clock.Now().Sub(start)), recovered,
				fmt.Errorf("cluster: failover of %q: %w", l.Name, err)
		}
		recovered++
	}
	return time.Duration(c.Clock.Now().Sub(start)), recovered, nil
}

// HostStat is one member's load summary.
type HostStat struct {
	Name     string
	VMs      int
	MemoryMB float64
	CPU      float64
}

// Stats summarizes every live member in join order.
func (c *Cluster) Stats() []HostStat {
	out := make([]HostStat, 0, len(c.hostNames))
	for _, name := range c.hostNames {
		if c.failed[name] {
			continue
		}
		h := c.hosts[name]
		out = append(out, HostStat{
			Name:     name,
			VMs:      h.VMs(),
			MemoryMB: float64(h.MemoryUsedBytes()) / (1 << 20),
			CPU:      h.CPUUtilization(),
		})
	}
	return out
}

// Rebalance migrates VMs from the most- to the least-loaded host until
// their VM counts differ by at most one, returning the number of moves
// (a maintenance operation LightVM's 60 ms migrations make routine).
// Only healthy hosts participate on either end.
func (c *Cluster) Rebalance(maxMoves int) (int, error) {
	moves := 0
	for moves < maxMoves {
		order := c.pick()
		if len(order) < 2 {
			return moves, nil
		}
		least, most := order[0], order[len(order)-1]
		if c.hosts[most].VMs()-c.hosts[least].VMs() <= 1 {
			return moves, nil
		}
		// Move an arbitrary (first by name) VM off the hottest host.
		vms := c.hosts[most].Env.AllVMs()
		if len(vms) == 0 {
			return moves, nil
		}
		if _, err := c.Move(vms[0].Name, least); err != nil {
			return moves, err
		}
		moves++
	}
	return moves, nil
}

// grantLease bumps the VM's placement epoch and records the new owner's
// claim durably in its intent journal. A no-op until the health monitor
// (and with it the lease fence) is enabled, so fault-free timelines are
// untouched.
func (c *Cluster) grantLease(hostName, vmName string, mode toolstack.Mode) {
	if c.health == nil {
		return
	}
	c.hostMode[hostName] = mode
	e := c.epochs[vmName] + 1
	c.epochs[vmName] = e
	c.hosts[hostName].Env.GrantLease(vmName, e, mode.UsesStore())
}

// armLease attaches the epoch validator to one member's Dom0: the
// fence the toolstack consults on destroy/migrate/scrub.
func (c *Cluster) armLease(name string) {
	c.hosts[name].Env.LeaseCheck = func(vmName string, epoch uint64) bool {
		cur, ok := c.epochs[vmName]
		return ok && epoch == cur
	}
}
