package toolstack

import (
	"strconv"

	"lightvm/internal/costs"
	"lightvm/internal/guest"
	"lightvm/internal/hv"
	"lightvm/internal/xenbus"
)

// Chaos is LightVM's lean toolstack (libchaos + chaos command, §5.1):
// minimal config format, xendevd instead of hotplug scripts, far fewer
// store interactions — or none at all with noxs — and optionally the
// split toolstack's pre-created shells.
type Chaos struct {
	env  *Env
	mode Mode
}

// NewChaos returns a chaos driver in one of the non-xl modes.
func NewChaos(env *Env, mode Mode) *Chaos {
	if mode == ModeXL {
		panic("toolstack: NewChaos with ModeXL")
	}
	if env.Faults != nil {
		// Under the fault plane, vif setup degrades to bash scripts
		// while the pool daemon is down (SetFaults installs the same
		// shim if the injector is attached after the driver).
		env.armVifFailover()
	} else {
		env.SetVifHotplug(env.Xendevd)
	}
	return &Chaos{env: env, mode: mode}
}

// Name implements Driver.
func (c *Chaos) Name() string { return c.mode.String() }

// Create implements Driver.
func (c *Chaos) Create(name string, img guest.Image) (*VM, error) {
	e := c.env
	vm := &VM{Name: name, Image: img, Mode: c.mode}
	if err := e.register(vm); err != nil {
		return nil, err
	}
	var bd Breakdown
	var retErr error
	start := e.Clock.Now()

	// The intent journal goes where this mode keeps its truth: a store
	// node on the XS paths, the noxs module's kernel-side table
	// otherwise. Written before any durable state, updated once the
	// domain ID is known.
	us := c.mode.UsesStore()

	e.RunDom0(func() {
		e.charge(&bd.Config, func() { e.Clock.Sleep(costs.ConfigParseChaos) })
		e.charge(&bd.Toolstack, func() { e.journalSet(us, name, journalOpCreate, "hv", 0) })
		if retErr = e.crashPoint("chaos.create.begin"); retErr != nil {
			return
		}
		e.charge(&bd.Toolstack, func() { e.Clock.Sleep(costs.ToolstackInternalChaos) })

		if c.mode.UsesSplit() {
			// Execute phase on a pre-created shell.
			var shell *Shell
			e.charge(&bd.Toolstack, func() {
				shell = e.Pool.Take(img, us)
			})
			if shell == nil {
				// Pool miss: prepare inline, paying full price. Prepare
				// has its own crash points journaled under shell:<id>.
				e.charge(&bd.Hypervisor, func() { shell, retErr = e.Pool.Prepare(img, us) })
				if retErr != nil {
					return
				}
			}
			vm.Dom, vm.Core = shell.Dom, shell.Core
			e.charge(&bd.Toolstack, func() { e.journalSet(us, name, journalOpCreate, "finalize", vm.Dom.ID) })
			e.charge(&bd.Devices, func() { retErr = e.Pool.finalizeDevices(shell, img) })
			if retErr != nil {
				return
			}
		} else {
			vm.Core = e.Sched.Place()
			e.charge(&bd.Hypervisor, func() {
				if vm.Dom, retErr = e.HV.CreateDomain(hv.Config{
					MaxMem: img.MemBytes, VCPUs: 1, Cores: []int{vm.Core},
				}); retErr != nil {
					return
				}
				retErr = e.PopulateGuest(vm.Dom.ID, img)
			})
			if retErr != nil {
				return
			}
			e.charge(&bd.Toolstack, func() { e.journalSet(us, name, journalOpCreate, "devices", vm.Dom.ID) })
			if retErr = e.crashPoint("chaos.create.hv"); retErr != nil {
				return
			}
			e.charge(&bd.Devices, func() { retErr = e.CreateDevices(vm.Dom.ID, img.Devices, us) })
			if retErr != nil {
				return
			}
		}
		if retErr = e.crashPoint("chaos.create.devices"); retErr != nil {
			return
		}

		if us {
			// chaos keeps only the handful of entries guests need.
			e.charge(&bd.XenStore, func() { retErr = e.storeQuotaGate(vm.Dom.ID, "chaos.create.store") })
			if retErr != nil {
				return
			}
			e.charge(&bd.XenStore, func() {
				domPath := xenbus.DomainPath(vm.Dom.ID)
				e.Store.WriteAt(domPath, "name", name)
				e.Store.WriteAt(domPath, "memory/target", strconv.FormatUint(img.MemBytes/1024, 10))
				e.Store.WriteAt(domPath, "console/port", "2")
			})
			if retErr = e.crashPoint("chaos.create.store"); retErr != nil {
				return
			}
		}

		e.charge(&bd.Load, func() {
			retErr = e.HV.LoadImage(vm.Dom.ID, img.TotalSize())
		})
		if retErr != nil {
			return
		}
		e.charge(&bd.Hypervisor, func() { retErr = e.HV.Unpause(vm.Dom.ID) })
		if retErr != nil {
			return
		}
		retErr = e.crashPoint("chaos.create.finalize")
	})
	if retErr != nil {
		return nil, e.abandon(vm, us, retErr)
	}
	return e.bootCreated(c, vm, bd, start)
}

// Destroy implements Driver. As in xl, crash points sit after the
// guest is unregistered, and the destroy intent rolls forward on
// recovery.
func (c *Chaos) Destroy(vm *VM) error {
	e := c.env
	// Ownership fence, as in xl: stale-epoch teardowns are rejected.
	if err := e.CheckLease(vm.Name); err != nil {
		return err
	}
	us := c.mode.UsesStore()
	var crashErr error
	e.RunDom0(func() {
		e.UnregisterRunning(vm)
		e.journalSet(us, vm.Name, journalOpDestroy, "devices", vm.Dom.ID)
		if crashErr = e.crashPoint("chaos.destroy.begin"); crashErr != nil {
			return
		}
		e.RemoveDevices(vm.Dom.ID, vm.Image.Devices, us)
		if crashErr = e.crashPoint("chaos.destroy.devices"); crashErr != nil {
			return
		}
		if us {
			_ = e.Store.Rm(xenbus.DomainPath(vm.Dom.ID))
		}
		e.Clock.Sleep(costs.ToolstackInternalChaos)
	})
	e.forget(vm)
	if crashErr != nil {
		return crashErr
	}
	if crashErr = e.crashPoint("chaos.destroy.hv"); crashErr != nil {
		return crashErr
	}
	err := e.HV.DestroyDomain(vm.Dom.ID)
	e.journalClear(us, vm.Name)
	if e.Trace != nil {
		e.Trace.Emit("toolstack", "destroy", vm.Name, "mode="+c.mode.String(), 0)
	}
	return err
}
