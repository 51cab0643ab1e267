// Package devd models the two ways Xen plumbs a freshly created
// virtual interface into the Dom0 software switch (paper §5.3):
//
//   - BashScripts: stock Xen, where xl or udevd fork+exec a bash
//     hotplug script per device — "a slow process taking tens of
//     milliseconds, considerably slowing down the boot process".
//   - Xendevd: LightVM's binary daemon that "listens for udev events
//     from the backends and executes a pre-defined setup without
//     forking or bash scripts".
//
// Both paths end by attaching the port to the bridge; the difference
// is purely dispatch overhead, making this the cleanest ablation in
// the system.
package devd

import (
	"errors"
	"fmt"

	"lightvm/internal/costs"
	"lightvm/internal/sim"
)

// ErrHotplug marks a hotplug setup or teardown failure; all errors
// returned by the Hotplug implementations in this package wrap it.
var ErrHotplug = errors.New("devd: hotplug failed")

// Bridge is the Dom0 software bridge as hotplug sees it: the set of
// attached vif ports, each the idx'th device of guest dom (the
// interface Linux names "vif<dom>.<idx>"). Attaching a port twice, or
// detaching one that is not attached, is an error — each vif is
// plumbed exactly once between its backend's setup and teardown.
type Bridge struct {
	ports map[vif]struct{}
}

// vif keys a bridge port by guest and device index.
type vif struct{ dom, idx int }

// NewBridge returns a bridge with no ports.
func NewBridge() *Bridge { return &Bridge{ports: make(map[vif]struct{})} }

// AttachPort adds guest dom's idx'th vif.
func (b *Bridge) AttachPort(dom, idx int) error {
	v := vif{dom, idx}
	if _, dup := b.ports[v]; dup {
		return fmt.Errorf("devd: port \"vif%d.%d\" already attached", dom, idx)
	}
	b.ports[v] = struct{}{}
	return nil
}

// DetachPort removes guest dom's idx'th vif.
func (b *Bridge) DetachPort(dom, idx int) error {
	v := vif{dom, idx}
	if _, ok := b.ports[v]; !ok {
		return fmt.Errorf("devd: no port \"vif%d.%d\"", dom, idx)
	}
	delete(b.ports, v)
	return nil
}

// Ports reports the attached port count.
func (b *Bridge) Ports() int { return len(b.ports) }

// Hotplug sets up and tears down guest vifs in Dom0.
type Hotplug interface {
	// Setup plumbs guest dom's idx'th vif into the bridge.
	Setup(dom, idx int) error
	// Teardown removes it.
	Teardown(dom, idx int) error
	// Name identifies the mechanism for logs and breakdowns.
	Name() string
}

// BashScripts is the stock xl/udevd hotplug path.
type BashScripts struct {
	Clock  *sim.Clock
	Bridge *Bridge
	// Invocations counts script executions (fork+exec pairs).
	Invocations int
}

// Name implements Hotplug.
func (b *BashScripts) Name() string { return "bash-hotplug" }

// Setup forks a shell, runs the script, and attaches the port.
func (b *BashScripts) Setup(dom, idx int) error {
	b.Invocations++
	return plumb(b.Clock, costs.HotplugBashScript+costs.VifBridgeAttach, "bash hotplug", b.Bridge.AttachPort, dom, idx)
}

// Teardown forks the script again with the offline argument.
func (b *BashScripts) Teardown(dom, idx int) error {
	b.Invocations++
	return plumb(b.Clock, costs.HotplugBashScript, "bash hotplug", b.Bridge.DetachPort, dom, idx)
}

// plumb charges a hotplug step's dispatch, then attaches or detaches
// the vif, wrapping a bridge failure in ErrHotplug.
func plumb(clock *sim.Clock, cost sim.Duration, via string, port func(dom, idx int) error, dom, idx int) error {
	clock.Sleep(cost)
	if err := port(dom, idx); err != nil {
		return fmt.Errorf("%w: %s vif%d.%d: %v", ErrHotplug, via, dom, idx, err)
	}
	return nil
}

// Xendevd is LightVM's in-process setup daemon.
type Xendevd struct {
	Clock  *sim.Clock
	Bridge *Bridge
	// Events counts udev events handled.
	Events int
}

// Name implements Hotplug.
func (x *Xendevd) Name() string { return "xendevd" }

// Setup handles the udev event with the pre-defined binary path.
func (x *Xendevd) Setup(dom, idx int) error {
	x.Events++
	return plumb(x.Clock, costs.HotplugXendevd+costs.VifBridgeAttach, "xendevd", x.Bridge.AttachPort, dom, idx)
}

// Teardown removes the port without forking.
func (x *Xendevd) Teardown(dom, idx int) error {
	x.Events++
	return plumb(x.Clock, costs.HotplugXendevd, "xendevd", x.Bridge.DetachPort, dom, idx)
}

// Failover is a Hotplug that normally delegates to Primary but falls
// back to Backup while Down reports the primary unavailable. It models
// the recovery path when xendevd has crashed: udev events still arrive,
// and the toolstack degrades to the stock bash scripts until the daemon
// restarts.
type Failover struct {
	Primary Hotplug
	Backup  Hotplug
	// Down reports whether Primary is currently unavailable.
	Down func() bool
	// Fallbacks counts operations routed to Backup.
	Fallbacks int
}

// Name implements Hotplug.
func (f *Failover) Name() string { return f.Primary.Name() + "+failover" }

func (f *Failover) pick() Hotplug {
	if f.Down != nil && f.Down() {
		f.Fallbacks++
		return f.Backup
	}
	return f.Primary
}

// Setup implements Hotplug.
func (f *Failover) Setup(dom, idx int) error { return f.pick().Setup(dom, idx) }

// Teardown implements Hotplug.
func (f *Failover) Teardown(dom, idx int) error { return f.pick().Teardown(dom, idx) }
