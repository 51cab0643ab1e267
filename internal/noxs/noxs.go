// Package noxs implements LightVM's XenStore replacement (paper §5.1):
// a Dom0 kernel module through which the toolstack creates devices
// with a single ioctl, a hypervisor-maintained per-domain device page
// carrying the backend-id / event-channel / grant-reference triple,
// and a sysctl split pseudo-device for power operations (suspend,
// migrate) — so that VM create/save/resume/migrate/destroy never touch
// a message-passing registry.
//
// Protocol (Fig. 7b):
//
//  1. toolstack --ioctl--> noxs module: create device; backend
//     allocates the communication channel.
//  2. toolstack --hypercall--> hypervisor: write channel details into
//     the domain's device page.
//  3. guest --hypercall--> hypervisor: map device page (read-only).
//  4. guest binds the event channel and maps the control-page grant,
//     then talks to the backend directly over shared memory.
package noxs

import (
	"errors"
	"fmt"
	"sort"

	"lightvm/internal/costs"
	"lightvm/internal/devd"
	"lightvm/internal/hv"
	"lightvm/internal/sim"
)

// Errors.
var (
	ErrNoSysctl = errors.New("noxs: domain has no sysctl device")
)

// Counters tracks module activity.
type Counters struct {
	Ioctls         uint64
	DevicesCreated uint64
	DevicesGone    uint64
	Suspends       uint64
	// HotplugFailures counts vif teardowns whose hotplug step failed;
	// the device itself is still destroyed.
	HotplugFailures uint64
}

// Module is the noxs Linux kernel module living in Dom0.
type Module struct {
	HV      *hv.Hypervisor
	Clock   *sim.Clock
	Hotplug devd.Hotplug

	// journal is the toolstack's intent journal, kept in module (Dom0
	// kernel) memory: the chaos toolstack process can die mid-operation
	// but the module survives, so a restarted toolstack reads the
	// journal back and rolls half-done lifecycle steps forward or back.
	// This mirrors where the noxs design keeps device truth — in kernel
	// pages, not a store daemon.
	journal map[string]string
	Count   Counters
}

// NewModule loads the module against h, plumbing vifs through hp
// (LightVM pairs noxs with xendevd, but any Hotplug works).
func NewModule(h *hv.Hypervisor, hp devd.Hotplug) *Module {
	return &Module{HV: h, Clock: h.Clock, Hotplug: hp}
}

// ioctl charges the user→kernel round trip plus the module's
// per-domain table scan (the only residual O(#domains) term on the
// noxs path; it keeps Fig. 9's chaos[NoXS] curve at 8→15 ms).
func (m *Module) ioctl() {
	m.Count.Ioctls++
	scan := sim.Duration(m.HV.NumDomains()) * costs.NoxsPerDomainKernelScan
	m.Clock.Sleep(costs.IoctlRoundTrip + scan)
}

// JournalEntry is one intent-journal record.
type JournalEntry struct {
	Key    string
	Record string
}

// JournalSet records the lifecycle step the toolstack is about to run
// for key (one ioctl: the table lives module-side).
func (m *Module) JournalSet(key, record string) {
	m.ioctl()
	if m.journal == nil {
		m.journal = make(map[string]string)
	}
	m.journal[key] = record
}

// JournalClear removes key's record once the operation completes.
func (m *Module) JournalClear(key string) {
	m.ioctl()
	delete(m.journal, key)
}

// JournalScan reads the whole journal back (recovery path after a
// toolstack restart) — one ioctl regardless of size; the table is a
// handful of in-flight operations, never O(#domains).
func (m *Module) JournalScan() []JournalEntry {
	m.ioctl()
	return m.JournalEntries()
}

// JournalEntries lists the journal without charging time (invariant
// checker's view). Sorted by key for determinism.
func (m *Module) JournalEntries() []JournalEntry {
	if len(m.journal) == 0 {
		return nil
	}
	out := make([]JournalEntry, 0, len(m.journal))
	for k, v := range m.journal {
		out = append(out, JournalEntry{Key: k, Record: v})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// CreateDevice is steps 1–2 of Fig. 7b: the backend allocates the
// channel, and the toolstack publishes it on the device page.
func (m *Module) CreateDevice(dom hv.DomID, kind hv.DevKind, idx int, mac string) (hv.DevEntry, error) {
	m.ioctl()
	m.Clock.Sleep(costs.NoxsBackendCreate)
	port, err := m.HV.AllocUnboundPort(0, dom)
	if err != nil {
		return hv.DevEntry{}, fmt.Errorf("noxs: create %v[%d] for dom %d: %w", kind, idx, dom, err)
	}
	ref, err := m.HV.GrantAccess(0, dom, 0xdead0000+uint64(port))
	if err != nil {
		return hv.DevEntry{}, err
	}
	entry := hv.DevEntry{Kind: kind, Index: idx, Evtchn: port, CtrlGrant: ref, MAC: mac}
	if err := m.HV.DevicePageWrite(0, dom, entry); err != nil {
		return hv.DevEntry{}, err
	}
	if kind == hv.DevVif && m.Hotplug != nil {
		if err := m.Hotplug.Setup(int(dom), idx); err != nil {
			return hv.DevEntry{}, err
		}
	}
	m.Count.DevicesCreated++
	return entry, nil
}

// SetMAC finalizes a pre-created device's MAC address (split-toolstack
// execute phase, Fig. 8 step "device initialization"): one device-page
// update hypercall.
func (m *Module) SetMAC(dom hv.DomID, kind hv.DevKind, idx int, mac string) error {
	_, e, err := m.entry(dom, kind, idx)
	if err != nil {
		return err
	}
	e.MAC = mac
	m.Clock.Sleep(costs.NoxsDevicePageWrite + costs.Hypercall)
	return nil
}

// anyIndex makes entry match a device of the kind at any index.
const anyIndex = -1

// entry finds dom's device page and its entry for kind at idx.
func (m *Module) entry(dom hv.DomID, kind hv.DevKind, idx int) (*hv.DevicePage, *hv.DevEntry, error) {
	d, err := m.HV.Domain(dom)
	if err != nil {
		return nil, nil, err
	}
	if p := d.DevPage; p != nil {
		for i := range p.Entries {
			if e := &p.Entries[i]; e.Kind == kind && (idx == anyIndex || e.Index == idx) {
				return p, e, nil
			}
		}
	}
	return nil, nil, fmt.Errorf("noxs: dom %d has no %v[%d]", dom, kind, idx)
}

// DestroyDevice tears down one device. The paper notes noxs device
// destruction is not yet optimized (§6.2) — the cost constant reflects
// that.
func (m *Module) DestroyDevice(dom hv.DomID, kind hv.DevKind, idx int) error {
	m.ioctl()
	m.Clock.Sleep(costs.NoxsDeviceDestroy)
	_, entry, err := m.entry(dom, kind, idx)
	if err != nil {
		return err
	}
	_ = m.HV.ClosePort(entry.Evtchn)
	_ = m.HV.EndGrant(entry.CtrlGrant)
	if kind == hv.DevVif && m.Hotplug != nil {
		if err := m.Hotplug.Teardown(int(dom), idx); err != nil {
			m.Count.HotplugFailures++
		}
	}
	m.Count.DevicesGone++
	return m.HV.DevicePageRemove(0, dom, kind, idx)
}

// DestroyAll tears down every device of a domain (destroy path), in
// page order. It makes one DestroyDevice call per entry the page held
// on entry, on the entry at the front of what is left: a destroyed
// entry leaves the page, and one whose destroy failed stays and is
// stepped over, so a failing destroy cannot make the loop spin.
func (m *Module) DestroyAll(dom hv.DomID) {
	d, err := m.HV.Domain(dom)
	if err != nil || d.DevPage == nil {
		return
	}
	p := d.DevPage
	for i, n := 0, len(p.Entries); n > 0 && i < len(p.Entries); n-- {
		e, before := p.Entries[i], len(p.Entries)
		_ = m.DestroyDevice(dom, e.Kind, e.Index)
		if len(p.Entries) == before {
			i++
		}
	}
}

// ConnectGuest is the guest half (steps 3–4): map the device page,
// bind every event channel, map every control grant. No store, no
// watches — a handful of hypercalls. The page is read into a stack
// buffer with room for a vif, a vbd, a console and the sysctl device;
// a larger page is copied to the heap.
func (m *Module) ConnectGuest(dom hv.DomID) error {
	var buf [4]hv.DevEntry
	entries, err := m.HV.DevicePageMap(dom, buf[:0])
	if err != nil {
		return err
	}
	for _, e := range entries {
		if err := m.HV.BindPort(e.Evtchn, dom, m.guestUpcall(dom, e)); err != nil {
			return err
		}
		if _, err := m.HV.MapGrant(e.CtrlGrant, dom); err != nil {
			return err
		}
	}
	return nil
}

// guestUpcall returns the guest-side event handler for a device; for
// sysctl it implements the suspend protocol.
func (m *Module) guestUpcall(dom hv.DomID, e hv.DevEntry) func() {
	if e.Kind != hv.DevSysctl {
		return func() {}
	}
	return func() {
		page, _, err := m.entry(dom, hv.DevSysctl, anyIndex)
		if err != nil {
			return
		}
		reason := page.ShutdownReason
		// Guest saves internal state and unbinds noxs event channels
		// and device pages (§5.1), then the hypervisor marks it
		// suspended or shut down.
		m.Clock.Sleep(costs.SuspendHandshakeSysctl)
		switch reason {
		case "suspend":
			_ = m.HV.Suspend(dom, reason)
		case "poweroff":
			if d, err := m.HV.Domain(dom); err == nil {
				d.State = hv.StateShutdown
				d.ShutdownReason = reason
			}
		}
	}
}

// RequestShutdown is the toolstack's power operation: an ioctl to the
// sysctl back-end sets the reason field in the shared page and kicks
// the event channel (§5.1). reason is "suspend" or "poweroff".
func (m *Module) RequestShutdown(dom hv.DomID, reason string) error {
	// The module keeps no sysctl state: the port is the sysctl entry's
	// and the reason field is on the device page.
	page, e, err := m.entry(dom, hv.DevSysctl, anyIndex)
	if err != nil {
		return fmt.Errorf("%w: %d", ErrNoSysctl, dom)
	}
	port := e.Evtchn
	m.ioctl()
	page.ShutdownReason = reason
	if reason == "suspend" {
		m.Count.Suspends++
	}
	return m.HV.Send(port)
}
