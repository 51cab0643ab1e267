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
// returns the device.
func (e *Env) StoreDeviceCreate(dom hv.DomID, idx int, kind hv.DevKind, mac string) (xenbus.Device, error) {
	d := xenbus.NewDevice(dom, kind, idx)
	if err := e.Store.Txn(8, func(tx *xenstore.Tx) error {
		xenbus.WriteDeviceEntries(tx, d, mac)
		return nil
	}); err != nil {
		return d, err
	}
	return d, xenbus.WaitBackendReady(e.Store, e.Clock, d)
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

// RemoveDevices tears down a guest's devices on its device path, the
// inverse of CreateDevices: each store-path device in index order, or
// the whole noxs device page.
func (e *Env) RemoveDevices(dom hv.DomID, devs []guest.DeviceSpec, useStore bool) {
	if !useStore {
		e.Noxs.DestroyAll(dom)
		return
	}
	for i, dev := range devs {
		e.removeStoreDevice(xenbus.NewDevice(dom, dev.Kind, i))
	}
}

// removeStoreDevice tears down one store-path device: its Dom0 backend
// (event channel, vif hotplug), then its registry entries on both ends.
func (e *Env) removeStoreDevice(d xenbus.Device) {
	if b := e.backendFor(d.Kind); b != nil {
		b.Teardown(d)
	}
	xenbus.RemoveDeviceEntries(e.Store, d)
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
