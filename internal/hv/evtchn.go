package hv

import (
	"fmt"

	"lightvm/internal/costs"
)

// Port identifies an event channel endpoint.
type Port uint32

// Handler is invoked when an event is delivered on a port. Delivery
// happens synchronously at Send time (the upcall cost is charged
// first), mirroring how a software interrupt preempts the vCPU.
type Handler func()

// channel is an inter-domain event channel.
type channel struct {
	owner   DomID // allocating side
	peer    DomID
	handler Handler // receiver's upcall; nil until bound
	pending uint64
}

// AllocUnboundPort allocates an event channel for owner that peer may
// later bind (the classic backend flow: backend allocates, writes the
// port to the store or device page, frontend binds).
func (h *Hypervisor) AllocUnboundPort(owner, peer DomID) (Port, error) {
	if _, err := h.Domain(owner); err != nil {
		return 0, err
	}
	p := h.ports.Put(channel{owner: owner, peer: peer})
	h.charge(costs.EventChannelAlloc)
	return p, nil
}

// BindPort attaches the peer's upcall handler to the channel.
func (h *Hypervisor) BindPort(p Port, peer DomID, fn Handler) error {
	ch := h.ports.Get(p)
	if ch == nil {
		return fmt.Errorf("%w: %d", ErrNoSuchPort, p)
	}
	if ch.peer != peer {
		return fmt.Errorf("hv: port %d reserved for domain %d, bind from %d", p, ch.peer, peer)
	}
	ch.handler = fn
	h.charge(0)
	return nil
}

// Send notifies the remote end of the channel. The upcall (software
// interrupt) is charged and the handler runs inline.
func (h *Hypervisor) Send(p Port) error {
	ch := h.ports.Get(p)
	if ch == nil {
		return fmt.Errorf("%w: %d", ErrNoSuchPort, p)
	}
	h.charge(costs.SoftIRQ)
	ch.pending++
	if ch.handler != nil {
		ch.handler()
	}
	return nil
}

// ClosePort tears down an event channel.
func (h *Hypervisor) ClosePort(p Port) error {
	if !h.ports.Del(p) {
		return fmt.Errorf("%w: %d", ErrNoSuchPort, p)
	}
	h.charge(0)
	return nil
}

// PortPending reports the number of undelivered-or-delivered sends on
// a port (diagnostic).
func (h *Hypervisor) PortPending(p Port) uint64 {
	if ch := h.ports.Get(p); ch != nil {
		return ch.pending
	}
	return 0
}

// NumPorts reports live event channels (diagnostic).
func (h *Hypervisor) NumPorts() int { return h.ports.Len() }

// GrantRef names an entry in a domain's grant table.
type GrantRef uint32

// grant is a page shared by owner with a specific peer.
type grant struct {
	owner DomID
	peer  DomID
	frame uint64
}

// GrantAccess shares frame of owner's memory with peer.
func (h *Hypervisor) GrantAccess(owner, peer DomID, frame uint64) (GrantRef, error) {
	if _, err := h.Domain(owner); err != nil {
		return 0, err
	}
	r := h.grants.Put(grant{owner: owner, peer: peer, frame: frame})
	h.charge(costs.GrantRefSetup)
	return r, nil
}

// MapGrant maps a granted page into peer's address space.
func (h *Hypervisor) MapGrant(r GrantRef, peer DomID) (uint64, error) {
	g := h.grants.Get(r)
	if g == nil {
		return 0, fmt.Errorf("%w: %d", ErrNoSuchGrant, r)
	}
	if g.peer != peer {
		return 0, fmt.Errorf("hv: grant %d not for domain %d", r, peer)
	}
	h.Count.GrantMaps++
	h.charge(costs.GrantRefSetup)
	return g.frame, nil
}

// EndGrant revokes a grant.
func (h *Hypervisor) EndGrant(r GrantRef) error {
	if !h.grants.Del(r) {
		return fmt.Errorf("%w: %d", ErrNoSuchGrant, r)
	}
	h.charge(0)
	return nil
}

// NumGrants reports live grant entries (diagnostic).
func (h *Hypervisor) NumGrants() int { return h.grants.Len() }

// Endpoint names one side of an event channel or grant as seen by an
// auditor: which domains the entry ties together.
type Endpoint struct {
	Owner DomID
	Peer  DomID
}

// EachPort calls fn on every live event channel's (owner, peer) pair
// in port order, in place. It is a pure inspection: no virtual time is
// charged, so invariant checkers can call it without perturbing runs.
func (h *Hypervisor) EachPort(fn func(Endpoint)) {
	h.ports.Each(func(_ Port, ch *channel) {
		fn(Endpoint{Owner: ch.owner, Peer: ch.peer})
	})
}

// EachGrant calls fn on every live grant's (owner, peer) pair in
// grant-ref order, in place. Clock-free, like EachPort.
func (h *Hypervisor) EachGrant(fn func(Endpoint)) {
	h.grants.Each(func(_ GrantRef, g *grant) {
		fn(Endpoint{Owner: g.owner, Peer: g.peer})
	})
}

// HasPort reports whether a port exists, without charging time.
func (h *Hypervisor) HasPort(p Port) bool {
	return h.ports.Get(p) != nil
}

// HasGrant reports whether a grant ref exists, without charging time.
func (h *Hypervisor) HasGrant(r GrantRef) bool {
	return h.grants.Get(r) != nil
}
