package toolstack

import (
	"lightvm/internal/guest"
	"lightvm/internal/hv"
	"lightvm/internal/xenbus"
	"lightvm/internal/xenstore"
)

// The device plane: the one device handshake every lifecycle step
// drives — create, clone, pool prepare, restore and migration
// pre-create — and the matching store-path teardown. On the store path
// it is the xenbus protocol of Fig. 7a; on noxs, the device page of
// Fig. 7b (§5.1).

// StoreDeviceCreate performs the XenStore handshake for one device:
// the toolstack's frontend and backend entries in one transaction,
// then the wait for the backend (and its hotplug) to come up. It
// returns the device's backend directory.
func (e *Env) StoreDeviceCreate(dom hv.DomID, idx int, kind hv.DevKind, mac string) (string, error) {
	req := xenbus.DeviceReq{Kind: kind, Dom: dom, Idx: idx, MAC: mac}
	be := xenbus.BackendPath(dom, kind, idx)
	if err := e.Store.Txn(8, func(tx *xenstore.Tx) error {
		xenbus.WriteDeviceEntries(tx, req, be)
		return nil
	}); err != nil {
		return be, err
	}
	return be, xenbus.WaitBackendReady(e.Store, e.Clock, dom, kind, idx, be)
}

// CreateDevices builds a guest's devices on its device path: the store
// handshake per device, or one noxs device-page entry per device plus
// the sysctl power device that replaces store-based control.
func (e *Env) CreateDevices(dom hv.DomID, devs []guest.DeviceSpec, useStore bool) error {
	if useStore {
		for i, dev := range devs {
			if _, err := e.StoreDeviceCreate(dom, i, dev.Kind, dev.MAC); err != nil {
				return err
			}
		}
		return nil
	}
	for i, dev := range devs {
		if _, err := e.Noxs.CreateDevice(dom, dev.Kind, i, dev.MAC); err != nil {
			return err
		}
	}
	_, err := e.Noxs.CreateDevice(dom, hv.DevSysctl, 0, "")
	return err
}

// RemoveStoreDevices tears down a guest's store-path devices in index
// order: each device's Dom0 backend (event channel, vif hotplug), then
// its registry entries on both ends.
func (e *Env) RemoveStoreDevices(dom hv.DomID, devs []guest.DeviceSpec) {
	for i, dev := range devs {
		be := xenbus.BackendPath(dom, dev.Kind, i)
		if b := e.backendFor(dev.Kind); b != nil {
			b.Teardown(dom, i, be)
		}
		xenbus.RemoveDeviceEntries(e.Store, dom, dev.Kind, i, be)
	}
}

// backendFor maps a device kind to its Dom0 backend, or nil for a kind
// that has none (the noxs-only sysctl device).
func (e *Env) backendFor(kind hv.DevKind) *xenbus.Backend {
	switch kind {
	case hv.DevVif:
		return e.BackVif
	case hv.DevVbd:
		return e.BackVbd
	case hv.DevConsole:
		return e.BackConsole
	}
	return nil
}
