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
	"strconv"

	"lightvm/internal/costs"
	"lightvm/internal/sim"
)

// ErrHotplug marks a hotplug setup or teardown failure; all errors
// returned by the Hotplug implementations in this package wrap it.
var ErrHotplug = errors.New("devd: hotplug failed")

// Bridge is the Dom0 software bridge as hotplug sees it: the set of
// attached vif ports. Attaching a port twice, or detaching one that is
// not attached, is an error — each vif is plumbed exactly once between
// its backend's setup and teardown.
type Bridge struct {
	ports map[string]struct{}
}

// NewBridge returns a bridge with no ports.
func NewBridge() *Bridge { return &Bridge{ports: make(map[string]struct{})} }

// AttachPort adds the named port.
func (b *Bridge) AttachPort(name string) error {
	if _, dup := b.ports[name]; dup {
		return fmt.Errorf("devd: port %q already attached", name)
	}
	b.ports[name] = struct{}{}
	return nil
}

// DetachPort removes the named port.
func (b *Bridge) DetachPort(name string) error {
	if _, ok := b.ports[name]; !ok {
		return fmt.Errorf("devd: no port %q", name)
	}
	delete(b.ports, name)
	return nil
}

// Ports reports the attached port count.
func (b *Bridge) Ports() int { return len(b.ports) }

// VifName is the hotplug interface name "vif<dom>.<idx>" of a guest's
// idx'th device, as every backend names the port it plumbs.
func VifName(dom, idx int) string {
	buf := make([]byte, 0, 16)
	buf = append(buf, "vif"...)
	buf = strconv.AppendInt(buf, int64(dom), 10)
	buf = append(buf, '.')
	buf = strconv.AppendInt(buf, int64(idx), 10)
	return string(buf)
}

// Hotplug sets up and tears down guest vifs in Dom0.
type Hotplug interface {
	// Setup plumbs the named vif (e.g. "vif3.0") into the bridge.
	Setup(vif string) error
	// Teardown removes it.
	Teardown(vif string) error
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
func (b *BashScripts) Setup(vif string) error {
	b.Invocations++
	b.Clock.Sleep(costs.HotplugBashScript + costs.VifBridgeAttach)
	if err := b.Bridge.AttachPort(vif); err != nil {
		return fmt.Errorf("%w: bash hotplug %s: %v", ErrHotplug, vif, err)
	}
	return nil
}

// Teardown forks the script again with the offline argument.
func (b *BashScripts) Teardown(vif string) error {
	b.Invocations++
	b.Clock.Sleep(costs.HotplugBashScript)
	if err := b.Bridge.DetachPort(vif); err != nil {
		return fmt.Errorf("%w: bash hotplug %s: %v", ErrHotplug, vif, err)
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
func (x *Xendevd) Setup(vif string) error {
	x.Events++
	x.Clock.Sleep(costs.HotplugXendevd + costs.VifBridgeAttach)
	if err := x.Bridge.AttachPort(vif); err != nil {
		return fmt.Errorf("%w: xendevd %s: %v", ErrHotplug, vif, err)
	}
	return nil
}

// Teardown removes the port without forking.
func (x *Xendevd) Teardown(vif string) error {
	x.Events++
	x.Clock.Sleep(costs.HotplugXendevd)
	if err := x.Bridge.DetachPort(vif); err != nil {
		return fmt.Errorf("%w: xendevd %s: %v", ErrHotplug, vif, err)
	}
	return nil
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
func (f *Failover) Setup(vif string) error { return f.pick().Setup(vif) }

// Teardown implements Hotplug.
func (f *Failover) Teardown(vif string) error { return f.pick().Teardown(vif) }
