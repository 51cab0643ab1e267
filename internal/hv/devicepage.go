package hv

import (
	"fmt"

	"lightvm/internal/costs"
)

// DevKind enumerates split-device types carried on the noxs device
// page (paper §5.1: block, networking, plus the sysctl power pseudo-
// device used for suspend/migration).
type DevKind int

// Device kinds.
const (
	DevVif DevKind = iota
	DevVbd
	DevConsole
	DevSysctl
)

var devKindNames = [...]string{"vif", "vbd", "console", "sysctl"}

func (k DevKind) String() string {
	if int(k) < len(devKindNames) {
		return devKindNames[k]
	}
	return fmt.Sprintf("dev(%d)", int(k))
}

// DevEntry is one device record in a domain's device page: the event
// channel and grant reference the XenStore handshake would otherwise
// convey (Fig. 7b). The backend is always Dom0, so no backend-id is
// stored.
type DevEntry struct {
	Kind      DevKind
	Index     int
	Evtchn    Port
	CtrlGrant GrantRef // grant for the device control page
	MAC       string   // vif only
}

// DevicePageSlots bounds entries per page (a 4 KiB page of records).
const DevicePageSlots = 32

// DevicePage is the read-only-to-guest page the hypervisor maintains
// per domain under noxs. Only Dom0 may request modifications.
type DevicePage struct {
	Entries []DevEntry
	// ShutdownReason is the sysctl device's reason field ("suspend" or
	// "poweroff"): the toolstack sets it before kicking the sysctl
	// channel, and the guest reads it in the upcall (§5.1).
	ShutdownReason string
}

// DevicePageWrite appends a device entry; the hypercall is restricted
// to Dom0 ("the page is shared read-only with guests, with only Dom0
// allowed to request modifications").
func (h *Hypervisor) DevicePageWrite(caller, id DomID, e DevEntry) error {
	if caller != 0 {
		return ErrNotPrivileged
	}
	d, err := h.Domain(id)
	if err != nil {
		return err
	}
	if d.DevPage == nil {
		d.DevPage = &DevicePage{}
	}
	if len(d.DevPage.Entries) >= DevicePageSlots {
		return ErrDevPageFull
	}
	if d.DevPage.Entries == nil {
		// Room for what every noxs guest carries: a vif and sysctl.
		d.DevPage.Entries = make([]DevEntry, 0, 2)
	}
	d.DevPage.Entries = append(d.DevPage.Entries, e)
	h.charge(costs.NoxsDevicePageWrite)
	return nil
}

// DevicePageRemove deletes the entry for (kind, index).
func (h *Hypervisor) DevicePageRemove(caller, id DomID, kind DevKind, index int) error {
	if caller != 0 {
		return ErrNotPrivileged
	}
	d, err := h.Domain(id)
	if err != nil {
		return err
	}
	if d.DevPage == nil {
		return fmt.Errorf("hv: domain %d has no device page", id)
	}
	for i, e := range d.DevPage.Entries {
		if e.Kind == kind && e.Index == index {
			d.DevPage.Entries = append(d.DevPage.Entries[:i], d.DevPage.Entries[i+1:]...)
			h.charge(costs.NoxsDevicePageWrite)
			return nil
		}
	}
	return fmt.Errorf("hv: domain %d has no %v[%d] entry", id, kind, index)
}

// DevicePageMap is the guest-side hypercall pair: ask for the device
// page address and map it read-only (Fig. 7b step 3). It appends a
// snapshot of the entries to dst and returns the extended slice, so a
// caller with a stack buffer maps the page without a heap copy. The
// result is a copy, not a view of the page: the hypercalls a caller
// makes per entry advance the clock, and a queued event that runs
// then may edit the page.
func (h *Hypervisor) DevicePageMap(id DomID, dst []DevEntry) ([]DevEntry, error) {
	d, err := h.Domain(id)
	if err != nil {
		return dst, err
	}
	h.charge(costs.NoxsDevicePageMap)
	if d.DevPage == nil {
		return dst, nil
	}
	return append(dst, d.DevPage.Entries...), nil
}
