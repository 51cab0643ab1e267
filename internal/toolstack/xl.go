package toolstack

import (
	"strconv"

	"lightvm/internal/costs"
	"lightvm/internal/guest"
	"lightvm/internal/hv"
	"lightvm/internal/xenbus"
	"lightvm/internal/xenstore"
)

// XL is the stock Xen toolstack (xl + libxl + libxc): XenStore for
// everything, bash hotplug scripts, and a lot of internal round trips.
// Its per-creation XenStore op count (~250) is what the paper's Fig. 5
// shows ballooning as guests accumulate.
type XL struct {
	env *Env
}

// NewXL returns the stock driver.
func NewXL(env *Env) *XL {
	env.SetVifHotplug(env.Bash)
	return &XL{env: env}
}

// Name implements Driver.
func (x *XL) Name() string { return ModeXL.String() }

// xlStateReads approximates libxl's habit of re-reading domain and
// device state from the store across its many sub-operations (JSON
// config lock, device counters, console negotiation, ...). Each is a
// full protocol round trip whose reply xl does not use, so they are
// charged with Store.ChargeReads.
const xlStateReads = 200

// Create implements the 9-step creation flow of Fig. 8's "standard
// toolstack" column, attributing time to Fig. 5's categories.
func (x *XL) Create(name string, img guest.Image) (*VM, error) {
	e := x.env
	vm := &VM{Name: name, Image: img, Mode: ModeXL, Core: e.Sched.Place()}
	if err := e.register(vm); err != nil {
		return nil, err
	}
	var bd Breakdown
	var retErr error
	start := e.Clock.Now()

	e.RunDom0(func() {
		// 1. Configuration parsing.
		e.charge(&bd.Config, func() { e.Clock.Sleep(costs.ConfigParse) })

		// 2. Toolstack-internal bookkeeping. The intent journal is
		// written before any durable state exists, and updated once the
		// domain ID is known, so a restarted xl can always find what
		// this creation left behind.
		e.charge(&bd.Toolstack, func() { e.journalSet(true, name, journalOpCreate, "hv", 0) })
		if retErr = e.crashPoint("xl.create.begin"); retErr != nil {
			return
		}
		e.charge(&bd.Toolstack, func() { e.Clock.Sleep(costs.ToolstackInternalXL) })

		// 3. Hypervisor reservation + memory.
		var dom *hv.Domain
		e.charge(&bd.Hypervisor, func() {
			if dom, retErr = e.HV.CreateDomain(hv.Config{
				MaxMem: img.MemBytes, VCPUs: 1, Cores: []int{vm.Core},
			}); retErr != nil {
				return
			}
			vm.Dom = dom // recorded immediately so error paths tear it down
			retErr = e.HV.PopulatePhysmap(dom.ID, img.MemBytes)
		})
		if retErr != nil {
			return
		}
		e.charge(&bd.Toolstack, func() { e.journalSet(true, name, journalOpCreate, "store", dom.ID) })
		if retErr = e.crashPoint("xl.create.hv"); retErr != nil {
			return
		}

		// 4. XenStore preamble: the domain's registry entries, the
		// unique-name check, and libxl's many state re-reads.
		e.charge(&bd.XenStore, func() { retErr = e.storeQuotaGate(dom.ID, "xl.create.store") })
		if retErr != nil {
			return
		}
		e.charge(&bd.XenStore, func() {
			domPath, vmPath := xenbus.DomainPath(dom.ID), "/vm/"+name
			retErr = e.Store.Txn(8, func(tx *xenstore.Tx) error {
				tx.WriteAt(domPath, "name", name)
				tx.WriteAt(domPath, "vm", vmPath)
				tx.WriteAt(domPath, "domid", strconv.Itoa(int(dom.ID)))
				tx.WriteAt(domPath, "memory/target", strconv.FormatUint(img.MemBytes/1024, 10))
				tx.WriteAt(domPath, "memory/static-max", strconv.FormatUint(img.MemBytes/1024, 10))
				tx.WriteAt(domPath, "cpu/0/availability", "online")
				tx.WriteAt(domPath, "console/limit", "1048576")
				tx.WriteAt(domPath, "console/type", "xenconsoled")
				tx.WriteAt(domPath, "control/platform-feature-multiprocessor-suspend", "1")
				tx.WriteAt(domPath, "control/shutdown", "")
				tx.WriteAt(vmPath, "uuid", vmUUID(dom.ID))
				tx.WriteAt(vmPath, "image/ostype", img.Kind.String())
				tx.WriteAt(vmPath, "start_time", e.Clock.Now().String())
				return nil
			})
			if retErr != nil {
				return
			}
			if err := e.Store.WriteUniqueName("/vm/names", strconv.Itoa(int(dom.ID)), name); err != nil {
				retErr = err
				return
			}
			// libxl lists every domain (§4.2). Only the charged round
			// trip is modelled, so the count goes unread, and the
			// listing cannot miss: the transaction above wrote under
			// /local/domain.
			_, _ = e.Store.DirectoryLen("/local/domain")
			e.Store.ChargeReads(domPath, "name", xlStateReads)
		})
		if retErr != nil {
			return
		}
		if retErr = e.crashPoint("xl.create.store"); retErr != nil {
			return
		}

		// 5–7. Device pre-creation + initialization (split-driver
		// handshake, bash hotplug).
		e.charge(&bd.Devices, func() { retErr = x.createDevices(vm) })
		if retErr != nil {
			return
		}
		if retErr = e.crashPoint("xl.create.devices"); retErr != nil {
			return
		}

		// 8. Image build: parse the kernel and lay it out in memory.
		e.charge(&bd.Load, func() {
			retErr = e.HV.LoadImage(dom.ID, img.TotalSize())
		})
		if retErr != nil {
			return
		}

		// Finalize: console ring info etc.
		e.charge(&bd.XenStore, func() {
			domPath := xenbus.DomainPath(dom.ID)
			e.Store.WriteAt(domPath, "console/ring-ref", "1")
			e.Store.WriteAt(domPath, "console/port", "2")
			e.Store.WriteAt(domPath, "image/entry", strconv.FormatUint(dom.KernelEntry, 16))
			e.Store.WriteAt(domPath, "unpaused", "1")
		})

		// 9. Boot kick.
		e.charge(&bd.Hypervisor, func() { retErr = e.HV.Unpause(dom.ID) })
		if retErr != nil {
			return
		}
		retErr = e.crashPoint("xl.create.finalize")
	})
	if retErr != nil {
		return nil, e.abandon(vm, true, retErr)
	}
	return e.bootCreated(x, vm, bd, start)
}

// vmUUID is the uuid xl records for domain id: "0000-" and the id,
// zero-padded to eight digits.
func vmUUID(id hv.DomID) string {
	var buf [32]byte
	b := append(buf[:0], "0000-"...)
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(id), 10)
	for i := len(d); i < 8; i++ {
		b = append(b, '0')
	}
	return string(append(b, d...))
}

// createDevices runs the Fig. 7a handshake for every device the image
// wants, waiting for the backend (and its hotplug script) per device.
func (x *XL) createDevices(vm *VM) error {
	e := x.env
	for i, dev := range vm.Image.Devices {
		d, err := e.StoreDeviceCreate(vm.Dom.ID, i, dev.Kind, dev.MAC)
		if err != nil {
			return err
		}
		// libxl re-reads the device's backend nodes to verify.
		for _, k := range [...]string{"state", "event-channel", "grant-ref"} {
			e.Store.ChargeReads(d.Backend, k, 1)
		}
	}
	return nil
}

// Destroy tears down devices, store state and the domain. Crash
// points sit after the guest is already unregistered: a destroy
// intent rolls FORWARD on recovery (the user asked for the domain to
// go), so the journal is written before the first teardown step.
func (x *XL) Destroy(vm *VM) error {
	e := x.env
	// Ownership fence: a stale lease means the domain was failed over
	// while this host was unreachable — hands off (the scrubber, not
	// the normal lifecycle, reaps the local copy).
	if err := e.CheckLease(vm.Name); err != nil {
		return err
	}
	var crashErr error
	e.RunDom0(func() {
		e.UnregisterRunning(vm)
		e.journalSet(true, vm.Name, journalOpDestroy, "devices", vm.Dom.ID)
		if crashErr = e.crashPoint("xl.destroy.begin"); crashErr != nil {
			return
		}
		e.RemoveDevices(vm.Dom.ID, vm.Image.Devices, true)
		if crashErr = e.crashPoint("xl.destroy.devices"); crashErr != nil {
			return
		}
		_ = e.Store.Rm(xenbus.DomainPath(vm.Dom.ID))
		_ = e.Store.Rm("/vm/" + vm.Name)
		_ = e.Store.Rm("/vm/names/" + strconv.Itoa(int(vm.Dom.ID)))
		e.Clock.Sleep(costs.ToolstackInternalXL / 2)
	})
	e.forget(vm)
	if crashErr != nil {
		return crashErr
	}
	if crashErr = e.crashPoint("xl.destroy.hv"); crashErr != nil {
		return crashErr
	}
	err := e.HV.DestroyDomain(vm.Dom.ID)
	e.journalClear(true, vm.Name)
	if e.Trace != nil {
		e.Trace.Emit("toolstack", "destroy", vm.Name, "mode="+ModeXL.String(), 0)
	}
	return err
}
