// Package xenbus implements Xen's split-driver device model over the
// XenStore (paper Fig. 7a): the toolstack announces a new device by
// writing frontend and backend entries; the backend — watching its
// store directory — allocates an event channel and grant reference and
// writes them back; the booting guest's frontend reads them, maps the
// grant, binds the channel and moves to Connected.
//
// This is the baseline ("XenStore") device path that noxs replaces.
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

// KindName maps device kinds to their store directory names ("vif",
// "vbd", "console") — exported so the scrubber can walk the backend
// directories the same way the toolstack laid them out.
func KindName(k hv.DevKind) string { return kindName(k) }

// FrontendWatchToken is the token a running frontend registers its
// backend-directory watch under; the scrubber unhooks dead guests'
// watches by this token.
func FrontendWatchToken(dom hv.DomID, kind hv.DevKind, idx int) string {
	buf := make([]byte, 0, 24)
	buf = append(buf, "fe-"...)
	buf = strconv.AppendInt(buf, int64(dom), 10)
	buf = append(buf, '-')
	buf = append(buf, kindName(kind)...)
	buf = append(buf, '-')
	buf = strconv.AppendInt(buf, int64(idx), 10)
	return string(buf)
}

// kindName maps device kinds to their store directory names.
func kindName(k hv.DevKind) string {
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
	buf = append(buf, kindName(kind)...)
	buf = append(buf, '/')
	buf = strconv.AppendInt(buf, int64(idx), 10)
	return string(buf)
}

// BackendPath returns the Dom0-side store directory for a device.
func BackendPath(dom hv.DomID, kind hv.DevKind, idx int) string {
	buf := make([]byte, 0, 48)
	buf = append(buf, "/local/domain/0/backend/"...)
	buf = append(buf, kindName(kind)...)
	buf = append(buf, '/')
	buf = strconv.AppendInt(buf, int64(dom), 10)
	buf = append(buf, '/')
	buf = strconv.AppendInt(buf, int64(idx), 10)
	return string(buf)
}

// VifName is the hotplug interface name "vif<dom>.<idx>".
func VifName(dom, idx int) string {
	buf := make([]byte, 0, 16)
	buf = append(buf, "vif"...)
	buf = strconv.AppendInt(buf, int64(dom), 10)
	buf = append(buf, '.')
	buf = strconv.AppendInt(buf, int64(idx), 10)
	return string(buf)
}

// DeviceReq describes a device the toolstack wants to create.
type DeviceReq struct {
	Kind hv.DevKind
	Dom  hv.DomID
	Idx  int
	MAC  string // vif only
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
	// HotplugFailures counts vif setups whose hotplug step failed (the
	// device still reaches InitWait, as with a failed hotplug script).
	HotplugFailures int
	// StallsInjected counts handshake announcements the fault plane
	// made this backend drop (the toolstack recovers via re-attach).
	StallsInjected int
}

// NewBackend registers a backend for kind: it places the watch on
// /local/domain/0/backend/<kind> exactly as netback does at start-up.
func NewBackend(kind hv.DevKind, h *hv.Hypervisor, s *xenstore.Store, hp devd.Hotplug) *Backend {
	b := &Backend{Kind: kind, HV: h, Store: s, Clock: h.Clock, Hotplug: hp}
	root := "/local/domain/0/backend/" + kindName(kind)
	s.Mkdir(root)
	s.Watch(root, "backend-"+kindName(kind), b.onWatch)
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
	feDomStr, err := b.Store.Read(dir + "/frontend-id")
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
	ref, err := b.HV.GrantAccess(0, hv.DomID(feDom), uint64(0xc0de0000+port), false)
	if err != nil {
		return
	}
	err = b.Store.Txn(8, func(tx *xenstore.Tx) error {
		if _, err := tx.Read(dir + "/state"); err != nil {
			return err
		}
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
			err = b.Hotplug.Setup(VifName(feDom, idx))
		}
		if err != nil {
			b.HotplugFailures++
		}
	}
	b.DevicesSetUp++
}

// Teardown closes down the backend half of a device (used on destroy
// and migration).
func (b *Backend) Teardown(dom hv.DomID, idx int) {
	dir := BackendPath(dom, b.Kind, idx)
	if portStr, err := b.Store.Read(dir + "/event-channel"); err == nil {
		if p, err := strconv.Atoi(portStr); err == nil {
			_ = b.HV.ClosePort(hv.Port(p))
		}
	}
	if b.Kind == hv.DevVif && b.Hotplug != nil {
		_ = b.Hotplug.Teardown(VifName(int(dom), idx))
	}
	_ = b.Store.Rm(dir)
}

// WriteDeviceEntries performs the toolstack's half of step 1 of
// Fig. 7a inside the caller's transaction: ~15 entries across the
// frontend and backend directories ("the VM creation process alone can
// require interaction with over 30 XenStore entries").
func WriteDeviceEntries(tx *xenstore.Tx, req DeviceReq) {
	fe := FrontendPath(req.Dom, req.Kind, req.Idx)
	be := BackendPath(req.Dom, req.Kind, req.Idx)
	tx.Write(fe+"/backend", be)
	tx.Write(fe+"/backend-id", "0")
	tx.Write(fe+"/handle", strconv.Itoa(req.Idx))
	if req.Kind == hv.DevVif {
		tx.Write(fe+"/mac", req.MAC)
		tx.Write(be+"/mac", req.MAC)
		tx.Write(be+"/bridge", "xenbr0")
	}
	tx.Write(fe+"/state", strconv.Itoa(StateInitialising))
	tx.Write(be+"/frontend", fe)
	tx.Write(be+"/frontend-id", strconv.Itoa(int(req.Dom)))
	tx.Write(be+"/handle", strconv.Itoa(req.Idx))
	tx.Write(be+"/online", "1")
	tx.Write(be+"/state", strconv.Itoa(StateInitialising))
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
func WaitBackendReady(s *xenstore.Store, clock *sim.Clock, dom hv.DomID, kind hv.DevKind, idx int) error {
	path := BackendPath(dom, kind, idx) + "/state"
	for attempt := 0; attempt < handshakeAttempts; attempt++ {
		deadline := clock.Now().Add(costs.DeviceHandshakeTimeout)
		for {
			v, err := s.Read(path)
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
			s.Write(path, strconv.Itoa(StateInitialising))
		}
	}
	return fmt.Errorf("%w: backend %s/%d for domain %d silent across %d attempts",
		ErrDeviceTimeout, kindName(kind), idx, dom, handshakeAttempts)
}

// ConnectFrontend is the guest half (steps 3–4 of Fig. 7a), run when
// the guest boots: read the backend's event channel and grant, bind
// and map them, and flip both states to Connected.
func ConnectFrontend(s *xenstore.Store, h *hv.Hypervisor, dom hv.DomID, kind hv.DevKind, idx int) error {
	fe := FrontendPath(dom, kind, idx)
	be := BackendPath(dom, kind, idx)
	portStr, err := s.Read(be + "/event-channel")
	if err != nil {
		return fmt.Errorf("%w: frontend %s/%d dom %d: %v", ErrBackendGone, kindName(kind), idx, dom, err)
	}
	refStr, err := s.Read(be + "/grant-ref")
	if err != nil {
		return fmt.Errorf("%w: frontend %s/%d dom %d: %v", ErrBackendGone, kindName(kind), idx, dom, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return fmt.Errorf("%w: bad event-channel %q: %v", ErrBadEntry, portStr, err)
	}
	ref, err := strconv.Atoi(refStr)
	if err != nil {
		return fmt.Errorf("%w: bad grant-ref %q: %v", ErrBadEntry, refStr, err)
	}
	if err := h.BindPort(hv.Port(port), dom, func() {}); err != nil {
		return err
	}
	if _, err := h.MapGrant(hv.GrantRef(ref), dom); err != nil {
		return err
	}
	h.Clock.Sleep(costs.FrontendDeviceInit)
	s.Write(fe+"/state", strconv.Itoa(StateConnected))
	s.Write(be+"/state", strconv.Itoa(StateConnected))
	// A running frontend keeps a watch on its backend directory — one
	// of the per-guest costs that accumulate against the store.
	s.Watch(be, FrontendWatchToken(dom, kind, idx), func(string, string) {})
	return nil
}

// RemoveDeviceEntries deletes a device's store state (toolstack side
// of destroy), including the running frontend's watch — without this
// the store's watch list (and with it every write's matching cost)
// would grow forever under churn.
func RemoveDeviceEntries(s *xenstore.Store, dom hv.DomID, kind hv.DevKind, idx int) {
	_ = s.Rm(FrontendPath(dom, kind, idx))
	_ = s.Rm(BackendPath(dom, kind, idx))
	s.UnwatchByToken(FrontendWatchToken(dom, kind, idx))
}
