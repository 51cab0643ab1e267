package experiments

import (
	"lightvm/internal/core"
	"lightvm/internal/guest"
	"lightvm/internal/metrics"
	"lightvm/internal/sched"
	"lightvm/internal/toolstack"
)

func init() {
	register("ext-ukvm", extUkvm)
}

// extUkvm — §9 "Generality": a ukvm/Solo5-style unikernel monitor on
// KVM ("10 ms boot times") against LightVM across a 1000-guest sweep.
// Both avoid the XenStore; the difference is that ukvm pays a monitor
// fork/exec plus setup per boot while the split toolstack amortizes
// prepare work off the creation path.
func extUkvm(o Options) (Result, error) {
	img := guest.Daytime()
	ukvm := curve{machine: sched.Xeon4, setup: func(h *core.Host) (step, error) {
		drv := toolstack.NewUkvm(h.Env)
		return func(i int, rec []float64) error { return boot(drv, img, i, rec) }, nil
	}}
	// Both monitors sweep on independent hosts, in parallel.
	pop, err := o.sweep(o.scaled(1000, 20), ukvm, bootCurve(sched.Xeon4, toolstack.ModeLightVM, img))
	if err != nil {
		return Result{}, err
	}
	t := metrics.NewTable("Extension: ukvm-style monitor vs LightVM (daytime unikernel)",
		"n", "ukvm_ms", "lightvm_ms")
	pop.addRows(t)
	t.Note("§9: 'ukvm implements a specialized unikernel monitor on top of KVM ... to achieve 10 ms boot times'")
	t.Note("both scale flat (no store); ukvm pays a per-boot monitor fork/exec that the split toolstack amortizes away")
	return Result{Paper: "§9: ukvm ≈10ms boots; LightVM still faster via the prepare phase", Table: t, VirtualMS: pop.virtMS}, nil
}
