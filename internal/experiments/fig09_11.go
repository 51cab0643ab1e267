package experiments

import (
	"fmt"

	"lightvm/internal/core"
	"lightvm/internal/guest"
	"lightvm/internal/metrics"
	"lightvm/internal/sched"
	"lightvm/internal/toolstack"
)

func init() {
	register("fig09", fig09)
	register("fig10", fig10)
	register("fig11", fig11)
}

// allModes are the Fig. 9 configurations in legend order.
var allModes = []toolstack.Mode{
	toolstack.ModeXL, toolstack.ModeChaosXS, toolstack.ModeChaosSplit,
	toolstack.ModeChaosNoXS, toolstack.ModeLightVM,
}

// bootCurve grows mode guests of img on machine and reads each sampled
// creation's create+boot time (ms). Split modes register the image's
// shell flavor first and, as the chaos daemon does, replenish the pool
// between creations.
func bootCurve(machine sched.Machine, mode toolstack.Mode, img guest.Image) curve {
	return curve{machine: machine, setup: func(h *core.Host) (step, error) {
		if err := h.EnsureFlavor(img, mode); err != nil {
			return nil, err
		}
		drv := h.Driver(mode)
		return func(i int, rec []float64) error {
			if mode.UsesSplit() {
				if err := h.Replenish(); err != nil {
					return err
				}
			}
			return boot(drv, img, i, rec)
		}, nil
	}}
}

// boot creates guest g<i> from img and, at a sampled count, reads its
// create+boot time (ms) into rec[0].
func boot(drv toolstack.Driver, img guest.Image, i int, rec []float64) error {
	vm, err := drv.Create(fmt.Sprintf("g%d", i), img)
	if err != nil {
		return fmt.Errorf("%s: %w", drv.Name(), err)
	}
	if rec != nil {
		rec[0] = ms(vm.CreateTime + vm.BootTime)
	}
	return nil
}

// dockerCurve runs noop containers on machine and reads each sampled
// container's start time (ms).
func dockerCurve(machine sched.Machine) curve {
	return curve{machine: machine, setup: func(h *core.Host) (step, error) {
		return func(i int, rec []float64) error {
			c, err := h.Docker.Run("noop")
			if err == nil && rec != nil {
				rec[0] = ms(c.StartTime)
			}
			return err
		}, nil
	}}
}

// fig09 — daytime-unikernel creation times for all five toolstack
// configurations, 1..1000 guests on the 4-core Xeon.
func fig09(o Options) (Result, error) {
	t := metrics.NewTable("Figure 9: daytime unikernel creation+boot times by toolstack",
		"n", "xl_ms", "chaos_xs_ms", "chaos_split_ms", "chaos_noxs_ms", "lightvm_ms")
	curves := make([]curve, len(allModes))
	for j, mode := range allModes {
		curves[j] = bootCurve(sched.Xeon4, mode, guest.Daytime())
	}
	pop, err := o.sweep(o.scaled(1000, 20), curves...)
	if err != nil {
		return Result{}, err
	}
	pop.addRows(t)
	t.Note("paper: xl ~100ms→~1s; chaos[XS] 15→80ms; +split max ~25ms; noxs 8→15ms; LightVM 4→4.1ms")
	return Result{Paper: "LightVM flat at ~4ms; xl grows toward 1s at 1000 guests", Table: t, VirtualMS: pop.virtMS}, nil
}

// fig10 — LightVM (noop unikernel) vs Docker on the 64-core AMD
// machine, up to 8000 guests; Docker hits its memory wall around 3-4k.
func fig10(o Options) (Result, error) {
	docker := dockerCurve(sched.Amd64)
	docker.wall = true
	pop, err := o.sweep(o.scaled(8000, 40), bootCurve(sched.Amd64, toolstack.ModeLightVM, guest.Noop()), docker)
	if err != nil {
		return Result{}, err
	}
	t := metrics.NewTable("Figure 10: LightVM vs Docker boot times to 8000 guests (64-core AMD)",
		"n", "lightvm_ms", "docker_ms")
	pop.addRows(t)
	if wall := pop.walls[1]; wall > 0 {
		t.Note("docker hit the memory wall at %d containers (-1 = beyond the wall); paper stops at ~3000", wall)
	}
	t.Note("paper: LightVM scales to 8000; Docker starts ~150ms and ramps toward 1s by 3000 with memory-spike steps")
	return Result{Paper: "8000 LightVM guests; Docker collapses around 3000", Table: t, VirtualMS: pop.virtMS}, nil
}

// fig11 — boot times for unikernel and Tinyx guests (over LightVM)
// versus Docker containers: idle Tinyx guests dilate later boots.
func fig11(o Options) (Result, error) {
	pop, err := o.sweep(o.scaled(1000, 20),
		bootCurve(sched.Xeon4, toolstack.ModeLightVM, guest.TinyxNoop()),
		dockerCurve(sched.Xeon4),
		bootCurve(sched.Xeon4, toolstack.ModeLightVM, guest.Daytime()))
	if err != nil {
		return Result{}, err
	}
	t := metrics.NewTable("Figure 11: boot times — unikernel vs Tinyx (over LightVM) vs Docker",
		"n", "tinyx_ms", "docker_ms", "unikernel_ms")
	pop.addRows(t)
	t.Note("paper: tinyx tracks docker up to ~750 guests, then idle-guest background tasks dilate its boots; unikernel stays flat")
	return Result{Paper: "Tinyx ≈ Docker to ~750 guests; unikernel flat and lowest", Table: t, VirtualMS: pop.virtMS}, nil
}
