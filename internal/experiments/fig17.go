package experiments

import (
	"fmt"
	"math"
	"time"

	"lightvm/internal/core"
	"lightvm/internal/costs"
	"lightvm/internal/guest"
	"lightvm/internal/metrics"
	"lightvm/internal/minipy"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
	"lightvm/internal/toolstack"
)

func init() {
	register("fig17", fig17)
	register("fig18", fig18)
}

// computeRun is one lightweight-compute-service simulation (§7.4):
// 1000 python programs arrive every 250 ms; each spawns a Minipython
// VM that computes an approximation of e (~0.8 s of CPU) on one of
// three worker cores, then shuts down. Requests arrive slightly
// faster than the three cores can serve, so backlog builds.
type computeRun struct {
	// CompletionMS[k] is the service time of the k-th request.
	CompletionMS []float64
	// Concurrent[k] is the number of live VMs when request k arrives.
	Concurrent []int
}

// jobExtraWork is the per-job worker-core overhead a store-connected
// guest pays on top of the computation: its frontends chat with the
// XenStore while booting and the shutdown handshake goes through the
// store — and every operation slows down with the number of connected
// guests. noxs guests skip all of it. This is the mechanism behind
// the paper's observation that "the work reduction provided by noxs
// allows other VMs to do useful work" (§7.4).
func jobExtraWork(mode toolstack.Mode, running int) time.Duration {
	if !mode.UsesStore() {
		return 0
	}
	const bootStoreOps = 60
	perOp := 40*time.Microsecond + time.Duration(running)*costs.XSPerConnection
	return bootStoreOps*perOp + costs.SuspendHandshakeXS
}

// runComputeService executes the fig17/fig18 workload for one mode
// and returns the run and its final virtual time (ms).
func runComputeService(mode toolstack.Mode, requests int, seed uint64) (*computeRun, float64, error) {
	h, err := core.NewHost(sched.Xeon4, seed)
	if err != nil {
		return nil, 0, err
	}
	if err := h.EnsureFlavor(guest.Minipython(), mode); err != nil {
		return nil, 0, err
	}
	drv := h.Driver(mode)
	ps := sched.NewPS(h.Clock)
	out := &computeRun{
		CompletionMS: make([]float64, requests),
		Concurrent:   make([]int, requests),
	}

	// Verify the payload once for real: the job is the paper's
	// approximation of e.
	res, err := minipy.Run(minipy.ApproxEProgram, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("fig17: payload: %w", err)
	}
	if v, ok := res.Globals["result"].(float64); !ok || math.Abs(v-math.E) > 1e-6 {
		return nil, 0, fmt.Errorf("fig17: payload returned %v, want e", res.Globals["result"])
	}

	interArrival := 250 * time.Millisecond
	var doneVMs []*toolstack.VM
	live := 0
	for k := 0; k < requests; k++ {
		arrive := sim.Time(k) * sim.Time(interArrival)
		if h.Clock.Now() < arrive {
			h.Clock.AdvanceTo(arrive)
		}
		// Tear down VMs whose jobs completed (deferred out of the
		// completion events so toolstack work never runs inside the
		// event queue).
		for _, vm := range doneVMs {
			if err := drv.Destroy(vm); err != nil {
				return nil, 0, err
			}
		}
		doneVMs = doneVMs[:0]
		out.Concurrent[k] = live

		if mode.UsesSplit() {
			if err := h.Replenish(); err != nil {
				return nil, 0, err
			}
		}
		vm, err := drv.Create(fmt.Sprintf("job%d", k), guest.Minipython())
		if err != nil {
			return nil, 0, err
		}
		live++
		work := costs.MinipyEApprox + jobExtraWork(mode, live)
		k, vm, arrive := k, vm, arrive
		ps.Submit(vm.Core, work, func(finish sim.Time) {
			out.CompletionMS[k] = float64(finish.Sub(arrive)) / float64(time.Millisecond)
			doneVMs = append(doneVMs, vm)
			live--
		})
	}
	ps.Drain()
	for _, vm := range doneVMs {
		if err := drv.Destroy(vm); err != nil {
			return nil, 0, err
		}
	}
	return out, h.Clock.Now().Milliseconds(), nil
}

// computePair runs the fig17/fig18 workload for chaos[XS] and LightVM
// as cells, and returns both runs and the makespan.
func computePair(o Options, n int) (xs, lv *computeRun, virtMS float64, err error) {
	modes := []toolstack.Mode{toolstack.ModeChaosXS, toolstack.ModeLightVM}
	runs := make([]*computeRun, len(modes))
	virtMS, err = o.cells(len(modes), func(i int) (float64, error) {
		r, v, err := runComputeService(modes[i], n, o.Seed)
		runs[i] = r
		return v, err
	})
	return runs[0], runs[1], virtMS, err
}

// fig17 — service time of the nth compute request on the overloaded
// machine, chaos[XS] vs LightVM.
func fig17(o Options) (Result, error) {
	n := o.scaled(1000, 40)
	xs, lv, virtMS, err := computePair(o, n)
	if err != nil {
		return Result{}, err
	}
	t := metrics.NewTable("Figure 17: compute-service time for the nth request (overloaded host)",
		"n", "chaos_xs_s", "lightvm_s")
	for _, p := range o.samplePoints(n) {
		t.AddRow(float64(p), xs.CompletionMS[p-1]/1000, lv.CompletionMS[p-1]/1000)
	}
	t.Note("paper: noxs improves completion times ~5× when 100-200 VMs are backlogged; jobs take ~0.8s, arrivals every 250ms on 3 worker cores")
	return Result{Paper: "LightVM completes requests ~5× faster under backlog", Table: t, VirtualMS: virtMS}, nil
}

// fig18 — number of concurrently running VMs over time for the same
// workload.
func fig18(o Options) (Result, error) {
	n := o.scaled(1000, 40)
	xs, lv, virtMS, err := computePair(o, n)
	if err != nil {
		return Result{}, err
	}
	t := metrics.NewTable("Figure 18: concurrently running VMs over time",
		"t_s", "chaos_xs_vms", "lightvm_vms")
	for _, p := range o.samplePoints(n) {
		t.AddRow(float64(p-1)*0.25, float64(xs.Concurrent[p-1]), float64(lv.Concurrent[p-1]))
	}
	t.Note("paper: chaos[XS] backlog climbs toward ~140 concurrent VMs; LightVM stays far lower")
	return Result{Paper: "noxs keeps the VM backlog small under overload", Table: t, VirtualMS: virtMS}, nil
}
