package experiments

import (
	"fmt"

	"lightvm/internal/core"
	"lightvm/internal/guest"
	"lightvm/internal/metrics"
	"lightvm/internal/sched"
)

func init() {
	register("ext-throughput", extThroughput)
}

// extThroughput measures sustained creation THROUGHPUT (VMs/s of
// virtual time) rather than Fig. 9's per-creation latency. The
// distinction matters for the split toolstack: its prepare work is off
// the latency path but still consumes Dom0, so its throughput
// advantage is smaller than its latency advantage — the honest cost of
// the paper's design.
func extThroughput(o Options) (Result, error) {
	n := o.scaled(500, 20)
	img := guest.Daytime()
	t := metrics.NewTable("Extension: sustained creation throughput (daytime unikernel)",
		"mode", "vms_per_sec", "latency_ms")
	// One independent host per toolstack mode; collect each mode's
	// numbers, then emit rows in legend order.
	type modeRow struct{ vmsPerSec, latencyMS float64 }
	rows := make([]modeRow, len(allModes))
	virtMS, err := o.cells(len(allModes), func(i int) (float64, error) {
		mode := allModes[i]
		h, err := core.NewHost(sched.Xeon4, o.Seed)
		if err != nil {
			return 0, err
		}
		if err := h.EnsureFlavor(img, mode); err != nil {
			return 0, err
		}
		start := h.Clock.Now()
		var lastLatency float64
		for k := 0; k < n; k++ {
			if mode.UsesSplit() {
				// The daemon's replenish work counts against
				// throughput even though it is off the latency path.
				if err := h.Replenish(); err != nil {
					return 0, err
				}
			}
			vm, err := h.CreateVM(mode, fmt.Sprintf("g%d", k), img)
			if err != nil {
				return 0, err
			}
			lastLatency = float64(vm.CreateTime+vm.BootTime) / 1e6
		}
		elapsed := h.Clock.Now().Sub(start).Seconds()
		rows[i] = modeRow{float64(n) / elapsed, lastLatency}
		return h.Clock.Now().Milliseconds(), nil
	})
	if err != nil {
		return Result{}, err
	}
	for i, r := range rows {
		t.AddRow(float64(i), r.vmsPerSec, r.latencyMS)
	}
	t.Note("rows: 0=xl, 1=chaos[XS], 2=chaos[XS+split], 3=chaos[NoXS], 4=LightVM")
	t.Note("split modes buy latency, not free throughput: shell preparation still costs Dom0 time between creations")
	return Result{Paper: "(derived) creation throughput behind Fig. 9's latency curves", Table: t, VirtualMS: virtMS}, nil
}
