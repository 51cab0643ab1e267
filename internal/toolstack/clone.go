package toolstack

import (
	"fmt"
	"time"

	"lightvm/internal/costs"
	"lightvm/internal/hv"
	"lightvm/internal/xenbus"
)

// CloneVM forks a running guest Potemkin/SnowFlock-style (related work
// §8: "JIT instantiation of honeypots through the use of image
// cloning"): the child resumes from the parent's state, sharing the
// bulk of its memory copy-on-write, with fresh devices of its own. The
// first clone of a parent pays a one-time snapshot pass; subsequent
// clones only map the shared region.
//
// Cloning composes the repository's extensions: the snapshot rides the
// §9 share pool, and device re-creation uses the parent's control
// plane (noxs or XenStore).
func (e *Env) CloneVM(parent *VM, name string) (*VM, error) {
	if !parent.Booted {
		return nil, fmt.Errorf("toolstack: clone of non-running VM %q", parent.Name)
	}
	img := parent.Image
	vm := &VM{Name: name, Image: img, Mode: parent.Mode, Core: e.Sched.Place()}
	if err := e.register(vm); err != nil {
		return nil, err
	}
	us := vm.Mode.UsesStore()
	var retErr error
	start := e.Clock.Now()
	e.RunDom0(func() {
		e.journalSet(us, name, journalOpClone, "hv", 0)
		if retErr = e.crashPoint("clone.begin"); retErr != nil {
			return
		}
		key := "clone:" + parent.Name
		memMB := float64(img.MemBytes) / (1 << 20)
		if e.HV.Share.Refs(key) == 0 {
			// First clone: snapshot the parent (COW-protect its pages).
			e.Clock.Sleep(time.Duration(memMB * float64(costs.CloneSnapshotPerMB)))
		}
		dom, err := e.HV.CreateDomain(hv.Config{
			MaxMem: img.MemBytes, VCPUs: 1, Cores: []int{vm.Core},
		})
		if err != nil {
			retErr = err
			return
		}
		vm.Dom = dom
		e.journalSet(us, name, journalOpClone, "devices", dom.ID)
		if retErr = e.crashPoint("clone.hv"); retErr != nil {
			return
		}
		private := uint64(float64(img.MemBytes) * costs.CloneWorkingSetFraction)
		shared := img.MemBytes - private
		if retErr = e.HV.PopulateShared(dom.ID, key, shared); retErr != nil {
			return
		}
		if private > 0 {
			if retErr = e.HV.PopulatePhysmap(dom.ID, private); retErr != nil {
				return
			}
		}
		// Fresh devices: a clone must not share its parent's rings.
		if us {
			// The child inherits the parent's registry in one graft: an
			// O(1) snapshot capture plus a single store op, instead of
			// re-writing every entry. Device handshake state is then
			// re-negotiated below with fresh rings, overwriting the
			// captured entries in place.
			e.Clock.Sleep(costs.CostStoreSnapshot)
			sub, err := e.Store.Snapshot().Subtree(xenbus.DomainPath(parent.Dom.ID))
			if err != nil {
				retErr = err
				return
			}
			if retErr = e.Store.GraftSnapshot(sub, "/", xenbus.DomainPath(dom.ID)); retErr != nil {
				return
			}
			e.Store.WriteAt(xenbus.DomainPath(dom.ID), "name", name)
		}
		if retErr = e.CreateDevices(dom.ID, img.Devices, us); retErr != nil {
			return
		}
		if retErr = e.crashPoint("clone.devices"); retErr != nil {
			return
		}
		dom.State = hv.StateSuspended // clone resumes, it does not boot
		if retErr = e.HV.Unpause(dom.ID); retErr != nil {
			return
		}
		retErr = e.crashPoint("clone.finalize")
	})
	if retErr != nil {
		return nil, e.abandon(vm, us, retErr)
	}
	e.journalClear(us, name)
	if err := e.BootResumed(vm); err != nil {
		return nil, err
	}
	vm.CreateTime = e.Clock.Now().Sub(start)
	vm.BootTime = 0 // resumed, not booted
	if e.Trace != nil {
		e.Trace.Emit("toolstack", "clone", name, "parent="+parent.Name, vm.CreateTime)
	}
	return vm, nil
}
