// Package xenbus implements Xen's split-driver device model over the
// XenStore (paper Fig. 7a): the toolstack announces a new device by
// writing frontend and backend entries; the backend — watching its
// store directory — allocates an event channel and grant reference and
// writes them back; the booting guest's frontend reads them, maps the
// grant, binds the channel and moves to Connected.
//
// This is the baseline ("XenStore") device path that noxs replaces.
//
// A Device names one device and carries its frontend and backend
// directories, built once by NewDevice. Every lifecycle step takes it
// by value (WriteDeviceEntries, WaitBackendReady, ConnectFrontend,
// Backend.Teardown, RemoveDeviceEntries) and reads and writes the
// entries under those directories through the store's
// directory-relative ops (Store.ReadAt, Store.WriteAt, Tx.ReadAt,
// Tx.WriteAt). They charge exactly what the full-path ops charge, but
// build an entry's path only for a watch that matches it: the netback
// watch on the backend root takes one per backend write.
package xenbus

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"time"

	"lightvm/internal/costs"
	"lightvm/internal/devd"
	"lightvm/internal/faults"
	"lightvm/internal/hv"
	"lightvm/internal/sim"
	"lightvm/internal/xenstore"
)

// Errors.
var (
	// ErrDeviceTimeout is the degradation terminus of the split-driver
	// handshake: the backend never reached InitWait despite the
	// toolstack's re-attach attempts.
	ErrDeviceTimeout = errors.New("xenbus: device handshake timed out")
	// ErrBadEntry marks a malformed store entry (unparsable
	// event-channel or grant-ref) on the frontend connect path.
	ErrBadEntry = errors.New("xenbus: malformed store entry")
	// ErrBackendGone marks a backend whose store state vanished while
	// the handshake was in flight.
	ErrBackendGone = errors.New("xenbus: backend state vanished")
)

// XenbusState values, as written to the store's state nodes.
const (
	StateUnknown      = 0
	StateInitialising = 1
	StateInitWait     = 2
	StateInitialised  = 3
	StateConnected    = 4
	StateClosing      = 5
	StateClosed       = 6
)

// FrontendWatchToken is the token a running frontend registers its
// backend-directory watch under; the scrubber unhooks dead guests'
// watches by this token.
func FrontendWatchToken(dom hv.DomID, kind hv.DevKind, idx int) string {
	buf := make([]byte, 0, 24)
	buf = append(buf, "fe-"...)
	buf = strconv.AppendInt(buf, int64(dom), 10)
	buf = append(buf, '-')
	buf = append(buf, KindName(kind)...)
	buf = append(buf, '-')
	buf = strconv.AppendInt(buf, int64(idx), 10)
	return string(buf)
}

// KindName maps device kinds to their store directory names ("vif",
// "vbd", "console", "sysctl").
func KindName(k hv.DevKind) string {
	switch k {
	case hv.DevVif:
		return "vif"
	case hv.DevVbd:
		return "vbd"
	case hv.DevConsole:
		return "console"
	case hv.DevSysctl:
		return "sysctl"
	}
	return "unknown"
}

// DomainPath returns a domain's store root, "/local/domain/<id>".
func DomainPath(dom hv.DomID) string {
	buf := make([]byte, 0, 24)
	buf = append(buf, "/local/domain/"...)
	buf = strconv.AppendInt(buf, int64(dom), 10)
	return string(buf)
}

// FrontendPath returns the guest-side store directory for a device.
func FrontendPath(dom hv.DomID, kind hv.DevKind, idx int) string {
	buf := make([]byte, 0, 48)
	buf = append(buf, "/local/domain/"...)
	buf = strconv.AppendInt(buf, int64(dom), 10)
	buf = append(buf, "/device/"...)
	buf = append(buf, KindName(kind)...)
	buf = append(buf, '/')
	buf = strconv.AppendInt(buf, int64(idx), 10)
	return string(buf)
}

// backendRoot is the parent of every backend driver's store directory.
const backendRoot = "/local/domain/0/backend/"

// BackendDir returns the Dom0-side store directory of one device
// kind's backend driver, "/local/domain/0/backend/<kind>": the root
// its watch covers, with one "<dom>/<idx>" subdirectory per device.
func BackendDir(kind hv.DevKind) string { return backendRoot + KindName(kind) }

// BackendDomainDir returns the Dom0-side directory holding one guest's
// devices of one kind, "/local/domain/0/backend/<kind>/<dom>".
func BackendDomainDir(dom hv.DomID, kind hv.DevKind) string {
	return BackendDir(kind) + "/" + strconv.Itoa(int(dom))
}

// BackendPath returns the Dom0-side store directory for a device.
func BackendPath(dom hv.DomID, kind hv.DevKind, idx int) string {
	buf := make([]byte, 0, 48)
	buf = append(buf, backendRoot...)
	buf = append(buf, KindName(kind)...)
	buf = append(buf, '/')
	buf = strconv.AppendInt(buf, int64(dom), 10)
	buf = append(buf, '/')
	buf = strconv.AppendInt(buf, int64(idx), 10)
	return string(buf)
}

// Device is one split-driver device: the guest it belongs to, its kind
// and index, and its frontend and backend store directories. It is a
// small value, passed by value through every lifecycle step.
type Device struct {
	Dom      hv.DomID
	Kind     hv.DevKind
	Idx      int
	Frontend string // FrontendPath(Dom, Kind, Idx)
	Backend  string // BackendPath(Dom, Kind, Idx)
}

// NewDevice names device idx of kind on guest dom and builds its two
// directories.
func NewDevice(dom hv.DomID, kind hv.DevKind, idx int) Device {
	return Device{dom, kind, idx, FrontendPath(dom, kind, idx), BackendPath(dom, kind, idx)}
}

// Backend is a Dom0 backend driver (netback/blkback) for one device
// kind. It watches its backend subtree and completes device setup
// asynchronously — as the real netback does — so backend work from a
// previous creation can overlap the next one's transactions.
type Backend struct {
	Kind    hv.DevKind
	HV      *hv.Hypervisor
	Store   *xenstore.Store
	Clock   *sim.Clock
	Hotplug devd.Hotplug

	// DevicesSetUp counts completed device initializations.
	DevicesSetUp int
	// HotplugFailures counts vif setups and teardowns whose hotplug step
	// failed (the device still reaches InitWait, or is still removed,
	// as with a failed hotplug script).
	HotplugFailures int
	// StallsInjected counts handshake announcements the fault plane
	// made this backend drop (the toolstack recovers via re-attach).
	StallsInjected int
}

// NewBackend registers a backend for kind: it places the watch on
// /local/domain/0/backend/<kind> exactly as netback does at start-up.
func NewBackend(kind hv.DevKind, h *hv.Hypervisor, s *xenstore.Store, hp devd.Hotplug) *Backend {
	b := &Backend{Kind: kind, HV: h, Store: s, Clock: h.Clock, Hotplug: hp}
	root := BackendDir(kind)
	s.Mkdir(root)
	s.Watch(root, "backend-"+KindName(kind), b.onWatch)
	return b
}

// onWatch reacts to toolstack writes announcing a new device: when the
// state node appears at Initialising, schedule backend processing.
func (b *Backend) onWatch(path, _ string) {
	if len(path) < 6 || path[len(path)-6:] != "/state" {
		return
	}
	v, err := b.Store.Read(path)
	if err != nil || v != strconv.Itoa(StateInitialising) {
		return
	}
	if b.Store.Faults.Fire(faults.KindHandshakeStall) {
		// The backend kthread loses the announcement (a missed watch
		// event): nothing is scheduled, and the device sits in
		// Initialising until the toolstack's watch timeout re-attaches.
		b.StallsInjected++
		return
	}
	dir := path[:len(path)-6]
	// The backend kthread picks the request up a little later; this
	// async hop is what lets backend transactions overlap toolstack
	// ones under load.
	b.Clock.After(costs.BackendDeviceInit, func() { b.setup(dir) })
}

// setup performs steps 2 of Fig. 7a: allocate the event channel and
// grant, write them back, run hotplug, and move to InitWait.
func (b *Backend) setup(dir string) {
	feDomStr, err := b.Store.ReadAt(dir, "frontend-id")
	if err != nil {
		return // device vanished before we got to it
	}
	feDom, err := strconv.Atoi(feDomStr)
	if err != nil {
		return
	}
	port, err := b.HV.AllocUnboundPort(0, hv.DomID(feDom))
	if err != nil {
		return
	}
	// Control page shared with the frontend (device details that the
	// XenStore no longer needs to carry once connected).
	ref, err := b.HV.GrantAccess(0, hv.DomID(feDom), uint64(0xc0de0000+port))
	if err != nil {
		return
	}
	err = b.Store.Txn(8, func(tx *xenstore.Tx) error {
		if _, err := tx.ReadAt(dir, "state"); err != nil {
			return err
		}
		// This backend's own watch on its root matches these writes,
		// so the commit needs each one's path: build it here.
		tx.Write(dir+"/event-channel", strconv.Itoa(int(port)))
		tx.Write(dir+"/grant-ref", strconv.Itoa(int(ref)))
		tx.Write(dir+"/state", strconv.Itoa(StateInitWait))
		return nil
	})
	if err != nil {
		return
	}
	if b.Kind == hv.DevVif && b.Hotplug != nil {
		// dir is BackendPath(dom, kind, idx): the index is its last segment.
		idx, err := strconv.Atoi(dir[strings.LastIndexByte(dir, '/')+1:])
		if err == nil {
			err = b.Hotplug.Setup(feDom, idx)
		}
		if err != nil {
			b.HotplugFailures++
		}
	}
	b.DevicesSetUp++
}

// Teardown closes down the backend half of d (used on destroy and
// migration).
func (b *Backend) Teardown(d Device) {
	if portStr, err := b.Store.ReadAt(d.Backend, "event-channel"); err == nil {
		if p, err := strconv.Atoi(portStr); err == nil {
			_ = b.HV.ClosePort(hv.Port(p))
		}
	}
	if b.Kind == hv.DevVif && b.Hotplug != nil {
		if err := b.Hotplug.Teardown(int(d.Dom), d.Idx); err != nil {
			b.HotplugFailures++
		}
	}
	_ = b.Store.Rm(d.Backend)
}

// WriteDeviceEntries performs the toolstack's half of step 1 of
// Fig. 7a for d inside the caller's transaction: ~15 entries across
// the frontend and backend directories ("the VM creation process alone
// can require interaction with over 30 XenStore entries"). mac is
// written for a vif only.
func WriteDeviceEntries(tx *xenstore.Tx, d Device, mac string) {
	fe, be := d.Frontend, d.Backend
	tx.WriteAt(fe, "backend", be)
	tx.WriteAt(fe, "backend-id", "0")
	tx.WriteAt(fe, "handle", strconv.Itoa(d.Idx))
	if d.Kind == hv.DevVif {
		tx.WriteAt(fe, "mac", mac)
		tx.WriteAt(be, "mac", mac)
		tx.WriteAt(be, "bridge", "xenbr0")
	}
	tx.WriteAt(fe, "state", strconv.Itoa(StateInitialising))
	tx.WriteAt(be, "frontend", fe)
	tx.WriteAt(be, "frontend-id", strconv.Itoa(int(d.Dom)))
	tx.WriteAt(be, "handle", strconv.Itoa(d.Idx))
	tx.WriteAt(be, "online", "1")
	tx.WriteAt(be, "state", strconv.Itoa(StateInitialising))
}

// handshakeAttempts bounds how many times the toolstack re-announces a
// device whose backend never answered before giving up with
// ErrDeviceTimeout.
const handshakeAttempts = 3

// WaitBackendReady polls the backend state until it reaches at least
// InitWait, sleeping between polls (this is where xl blocks while
// hotplug scripts run). If the backend stays silent for a full
// costs.DeviceHandshakeTimeout window — a lost watch event — the
// toolstack re-attaches: it rewrites the state node to Initialising,
// which re-fires the backend's watch and restarts setup. After
// handshakeAttempts silent windows it degrades to ErrDeviceTimeout.
func WaitBackendReady(s *xenstore.Store, clock *sim.Clock, d Device) error {
	for attempt := 0; attempt < handshakeAttempts; attempt++ {
		deadline := clock.Now().Add(costs.DeviceHandshakeTimeout)
		for {
			v, err := s.ReadAt(d.Backend, "state")
			if err == nil {
				if st, err := strconv.Atoi(v); err == nil && st >= StateInitWait {
					return nil
				}
			}
			if clock.Now() >= deadline {
				break
			}
			clock.Sleep(200 * time.Microsecond) // poll interval
		}
		if attempt < handshakeAttempts-1 {
			clock.Sleep(costs.DeviceReattach)
			s.WriteAt(d.Backend, "state", strconv.Itoa(StateInitialising))
		}
	}
	return fmt.Errorf("%w: backend %s/%d for domain %d silent across %d attempts",
		ErrDeviceTimeout, KindName(d.Kind), d.Idx, d.Dom, handshakeAttempts)
}

// ConnectFrontend is the guest half (steps 3–4 of Fig. 7a), run when
// the guest boots: read the backend's event channel and grant, bind
// and map them, and flip both states to Connected.
func ConnectFrontend(s *xenstore.Store, h *hv.Hypervisor, d Device) error {
	portStr, err := s.ReadAt(d.Backend, "event-channel")
	if err != nil {
		return fmt.Errorf("%w: frontend %s/%d dom %d: %v", ErrBackendGone, KindName(d.Kind), d.Idx, d.Dom, err)
	}
	refStr, err := s.ReadAt(d.Backend, "grant-ref")
	if err != nil {
		return fmt.Errorf("%w: frontend %s/%d dom %d: %v", ErrBackendGone, KindName(d.Kind), d.Idx, d.Dom, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return fmt.Errorf("%w: bad event-channel %q: %v", ErrBadEntry, portStr, err)
	}
	ref, err := strconv.Atoi(refStr)
	if err != nil {
		return fmt.Errorf("%w: bad grant-ref %q: %v", ErrBadEntry, refStr, err)
	}
	if err := h.BindPort(hv.Port(port), d.Dom, func() {}); err != nil {
		return err
	}
	if _, err := h.MapGrant(hv.GrantRef(ref), d.Dom); err != nil {
		return err
	}
	h.Clock.Sleep(costs.FrontendDeviceInit)
	s.WriteAt(d.Frontend, "state", strconv.Itoa(StateConnected))
	s.WriteAt(d.Backend, "state", strconv.Itoa(StateConnected))
	// A running frontend keeps a watch on its backend directory — one
	// of the per-guest costs that accumulate against the store.
	s.Watch(d.Backend, FrontendWatchToken(d.Dom, d.Kind, d.Idx), func(string, string) {})
	return nil
}

// RemoveDeviceEntries deletes d's store state (toolstack side of
// destroy), including the running frontend's watch — without this the
// store's watch list (and with it every write's matching cost) would
// grow forever under churn.
func RemoveDeviceEntries(s *xenstore.Store, d Device) {
	_ = s.Rm(d.Frontend)
	_ = s.Rm(d.Backend)
	s.UnwatchByToken(FrontendWatchToken(d.Dom, d.Kind, d.Idx))
}
