package toolstack

import (
	"errors"
	"fmt"
	"time"

	"lightvm/internal/costs"
	"lightvm/internal/guest"
	"lightvm/internal/hv"
)

// Ukvm is the §9 "Generality" comparison point: a specialized
// unikernel monitor in the style of ukvm/Solo5 on KVM ("ukvm
// implements a specialized unikernel monitor on top of KVM and uses
// MirageOS unikernels to achieve 10 ms boot times"). There is no
// XenStore, no split-driver handshake and no shell pool — one monitor
// process per guest sets up memory, loads the image and enters the
// guest, with paravirtual I/O negotiated directly over hypercalls.
//
// It exists to show LightVM's techniques against the other minimal
// design point: ukvm avoids all of Xen's control-plane baggage but
// pays a fork/exec plus per-boot setup on every creation, so it cannot
// amortize work the way the split toolstack does.
type Ukvm struct {
	env *Env
}

// NewUkvm returns the monitor-based driver.
func NewUkvm(env *Env) *Ukvm { return &Ukvm{env: env} }

// Name implements Driver.
func (u *Ukvm) Name() string { return "ukvm" }

// ukvm per-boot constants (documented against the 10 ms figure the
// paper cites for MirageOS guests).
const (
	// ukvmMonitorSpawn is the fork/exec of the monitor process.
	ukvmMonitorSpawn = costs.ForkExec
	// ukvmSetup is KVM vCPU/memory-region setup inside the monitor.
	ukvmSetup = 1200 * time.Microsecond
	// ukvmDeviceSetup wires the paravirtual net/block endpoints.
	ukvmDeviceSetup = 400 * time.Microsecond
)

// Create implements Driver: spawn a monitor, build the guest, enter it.
func (u *Ukvm) Create(name string, img guest.Image) (*VM, error) {
	e := u.env
	if img.Kind != guest.Unikernel {
		return nil, fmt.Errorf("toolstack: ukvm only runs unikernels, not %v", img.Kind)
	}
	vm := &VM{Name: name, Image: img, Mode: ModeChaosNoXS, Core: e.Sched.Place()}
	if err := e.register(vm); err != nil {
		return nil, err
	}
	var retErr error
	start := e.Clock.Now()
	e.RunDom0(func() {
		// One monitor process per guest.
		e.Clock.Sleep(ukvmMonitorSpawn + ukvmSetup)
		dom, err := e.HV.CreateDomain(hv.Config{
			MaxMem: img.MemBytes, VCPUs: 1, Cores: []int{vm.Core},
		})
		if err != nil {
			retErr = err
			return
		}
		vm.Dom = dom
		if err := e.PopulateGuest(dom.ID, img); err != nil {
			retErr = err
			return
		}
		e.Clock.Sleep(time.Duration(len(img.Devices)) * ukvmDeviceSetup)
		if err := e.HV.LoadImage(dom.ID, img.TotalSize()); err != nil {
			retErr = err
			return
		}
		retErr = e.HV.Unpause(dom.ID)
	})
	if retErr != nil {
		e.forget(vm)
		if vm.Dom != nil {
			if derr := e.HV.DestroyDomain(vm.Dom.ID); derr != nil {
				retErr = errors.Join(retErr, fmt.Errorf("toolstack: rollback of %q: %w", name, derr))
			}
		}
		return nil, retErr
	}
	vm.CreateTime = e.Clock.Now().Sub(start)
	bootStart := e.Clock.Now()
	// Guest boot: no frontend negotiation beyond the monitor's direct
	// paravirtual endpoints.
	e.Sched.RunWork(e.Clock, vm.Core, img.BootWork)
	e.markRunning(vm)
	vm.BootTime = e.Clock.Now().Sub(bootStart)
	e.Trace.Emit("toolstack", "create", name, "mode=ukvm", vm.CreateTime+vm.BootTime)
	return vm, nil
}

// Destroy implements Driver: kill the monitor process; the kernel
// reaps everything.
func (u *Ukvm) Destroy(vm *VM) error {
	e := u.env
	e.RunDom0(func() {
		e.UnregisterRunning(vm)
		e.Clock.Sleep(costs.ForkExec / 4) // SIGKILL + wait
	})
	e.forget(vm)
	err := e.HV.DestroyDomain(vm.Dom.ID)
	e.Trace.Emit("toolstack", "destroy", vm.Name, "mode=ukvm", 0)
	return err
}
