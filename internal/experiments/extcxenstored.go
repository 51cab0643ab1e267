package experiments

import (
	"lightvm/internal/core"
	"lightvm/internal/guest"
	"lightvm/internal/metrics"
	"lightvm/internal/sched"
	"lightvm/internal/toolstack"
	"lightvm/internal/xenstore"
)

func init() {
	register("ext-cxenstored", extCxenstored)
}

// extCxenstored — the paper's footnote 3: "this already uses
// oxenstored, the faster of the two available implementations of the
// XenStore. Results with cxenstored show much higher overheads." We
// rerun the Fig. 9 xl sweep under both store daemons.
func extCxenstored(o Options) (Result, error) {
	// The two store daemons sweep on independent hosts, in parallel.
	daemon := func(v xenstore.Variant) curve {
		c := bootCurve(sched.Xeon4, toolstack.ModeXL, guest.Daytime())
		xl := c.setup
		c.setup = func(h *core.Host) (step, error) {
			h.Env.Store.SetVariant(v)
			return xl(h)
		}
		return c
	}
	pop, err := o.sweep(o.scaled(1000, 20), daemon(xenstore.Oxenstored), daemon(xenstore.Cxenstored))
	if err != nil {
		return Result{}, err
	}
	t := metrics.NewTable("Extension: xl creation under oxenstored vs cxenstored (daytime unikernel)",
		"n", "oxenstored_ms", "cxenstored_ms", "slowdown")
	for _, r := range pop.rows {
		t.AddRow(r[0], r[1], r[2], r[2]/r[1])
	}
	t.Note("paper footnote 3: cxenstored shows 'much higher overheads' than the oxenstored results plotted in Figs. 5 and 9")
	return Result{Paper: "footnote 3: cxenstored much slower than oxenstored", Table: t, VirtualMS: pop.virtMS}, nil
}
