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
	register("ext-dedup", extDedup)
}

// extDedup — the §9 memory-sharing extension, evaluated Fig.-14 style:
// host memory versus number of Minipython unikernels with the
// SnowFlock-style share pool off and on. The paper lists this as
// future work; we implement it and measure the saving.
func extDedup(o Options) (Result, error) {
	minipy := func(dedup bool) curve {
		return memCurve(sched.Machine{Name: "dedup-host", Cores: 4, Dom0Cores: 1, MemoryGB: 64}, func(h *core.Host) func(int) error {
			h.Env.MemDedup = dedup
			drv := h.Driver(toolstack.ModeChaosNoXS)
			return func(i int) error {
				_, err := drv.Create(fmt.Sprintf("g%d", i), guest.Minipython())
				return err
			}
		})
	}
	// Off/on sweeps are independent hosts, run in parallel.
	pop, err := o.sweep(o.scaled(1000, 20), minipy(false), minipy(true))
	if err != nil {
		return Result{}, err
	}
	t := metrics.NewTable("Extension: memory deduplication (Minipython unikernels, MB)",
		"n", "baseline_mb", "dedup_mb", "saving_pct")
	for _, r := range pop.rows {
		baseline, dedup := r[1], r[2]
		saving := 0.0
		if baseline > 0 {
			saving = (1 - dedup/baseline) * 100
		}
		t.AddRow(r[0], baseline, dedup, saving)
	}
	t.Note("paper §9: 'LightVM does not use page sharing between VMs, assuming the worst-case scenario'; this measures the SnowFlock-style avenue it proposes")
	t.Note("model: sharers map the image-resident pages plus half of their never-written heap")
	return Result{Paper: "§9 future work: dedup reduces the per-VM footprint", Table: t, VirtualMS: pop.virtMS}, nil
}
