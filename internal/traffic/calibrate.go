package traffic

import (
	"fmt"
	"time"

	"lightvm/internal/container"
	"lightvm/internal/core"
	"lightvm/internal/guest"
	"lightvm/internal/sched"
	"lightvm/internal/toolstack"
)

// EstimateCapacity measures a mode's sustainable request rate: the
// control-plane cost of one request cycle (launch, then stop) on an
// otherwise idle serving host, inverted to requests per second.
// The overload study sets its offered-load multipliers against this
// number, so "2× capacity" means the same thing for an 8ms chaos
// create and an 80ms xl create. Deterministic: the scratch host runs
// on its own clock with a fixed seed, so the estimate is a pure
// function of (mode, img).
func EstimateCapacity(mode Mode, img guest.Image) (float64, error) {
	const cycles = 4
	h, err := newServeHost(1)
	if err != nil {
		return 0, err
	}
	if img.Name == "" {
		img = guest.Daytime()
	}
	img.BootWork = time.Microsecond // boot rides the guest cores, as in Serve
	begin := h.Clock.Now()
	for i := 0; i < cycles; i++ {
		// Launch + stop only: the serving loop's app call rides the
		// guest, not the control plane, so answering here would
		// overstate the per-request cost and understate capacity.
		inst, err := launch(h, mode, fmt.Sprintf("cal%d", i), img)
		if err != nil {
			return 0, fmt.Errorf("traffic: calibrate: %w", err)
		}
		if err := stop(h, inst); err != nil {
			return 0, fmt.Errorf("traffic: calibrate: %w", err)
		}
	}
	perReq := h.Clock.Now().Sub(begin) / cycles
	if perReq <= 0 {
		return 0, fmt.Errorf("traffic: calibration measured no cost for mode %v", mode)
	}
	return float64(time.Second) / float64(perReq), nil
}

// newServeHost builds the serving machine every run and calibration
// uses: 8 cores (one for Dom0), 32 GB, an empty shell pool, and
// XenStore access logging off. §4.2 calls oxenstored's per-access
// logging (with its 90ms rotation pause) a toolstack pathology, and no
// production serving path would run with it.
func newServeHost(seed uint64) (*core.Host, error) {
	h, err := core.NewHost(sched.Machine{Name: "serve", Cores: 8, Dom0Cores: 1, MemoryGB: 32}, seed)
	if err != nil {
		return nil, err
	}
	h.Env.Store.LoggingEnabled = false
	h.Env.Pool.SetTarget(0)
	return h, nil
}

// instance is one launched request backend: a guest, a container, or
// neither for a spawned process, which exits on its own.
type instance struct {
	vm  *toolstack.VM
	ctr *container.Container
}

// launch runs the control-plane half of one request: a guest create on
// the mode's toolstack (name and img are used only here), a container
// start, or a process fork/exec.
func launch(h *core.Host, mode Mode, name string, img guest.Image) (instance, error) {
	switch mode {
	case Container:
		c, err := h.Docker.Run(container.MicropythonImage().Name)
		return instance{ctr: c}, err
	case Process:
		_, err := h.Procs.Spawn(0)
		return instance{}, err
	default:
		vm, err := h.CreateVM(modeToolstack(mode), name, img)
		return instance{vm: vm}, err
	}
}

// stop tears a launched backend down.
func stop(h *core.Host, inst instance) error {
	switch {
	case inst.vm != nil:
		if err := h.DestroyVM(inst.vm); err != nil {
			return fmt.Errorf("traffic: destroy %s: %w", inst.vm.Name, err)
		}
	case inst.ctr != nil:
		return h.Docker.Stop(inst.ctr.ID)
	}
	return nil
}
