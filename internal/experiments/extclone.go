package experiments

import (
	"fmt"
	"time"

	"lightvm/internal/core"
	"lightvm/internal/guest"
	"lightvm/internal/metrics"
	"lightvm/internal/sched"
	"lightvm/internal/toolstack"
)

func init() {
	register("ext-clone", extClone)
}

// extClone — Potemkin/SnowFlock-style cloning (related work §8)
// against LightVM cold boots: instantiation latency and marginal
// memory for a fresh instance of each guest class. The paper's
// contrast: "unlike the work there, we do not require the VMs on the
// system to run the same application in order to achieve scalability"
// — cloning wins when instances ARE identical; LightVM wins
// generality.
func extClone(o Options) (Result, error) {
	images := []guest.Image{guest.Daytime(), guest.Minipython(), guest.TinyxNoop(), guest.DebianMinimal()}
	t := metrics.NewTable("Extension: cold boot vs SnowFlock-style clone",
		"idx", "boot_ms", "clone_ms", "clone_xs_ms", "boot_mb", "clone_mb")
	// Each guest class measures on its own hosts — run the four as
	// cells and emit rows in image order afterwards.
	type cloneRow struct{ bootMS, cloneMS, cloneXSMS, bootMB, cloneMB float64 }
	rows := make([]cloneRow, len(images))
	virtMS, err := o.cells(len(images), func(i int) (float64, error) {
		img := images[i]
		h, err := core.NewHost(sched.Machine{Name: "clone-host", Cores: 4, Dom0Cores: 1, MemoryGB: 64}, o.Seed)
		if err != nil {
			return 0, err
		}
		mode := toolstack.ModeChaosNoXS
		parent, err := h.CreateVM(mode, "parent", img)
		if err != nil {
			return 0, err
		}
		memBase := h.MemoryUsedBytes()
		boot, err := h.CreateVM(mode, "cold", img)
		if err != nil {
			return 0, err
		}
		bootMB := float64(h.MemoryUsedBytes()-memBase) / (1 << 20)
		bootMS := float64(boot.CreateTime+boot.BootTime) / float64(time.Millisecond)

		// Warm the snapshot with one clone, then measure the marginal
		// clone.
		if _, err := h.CloneVM(parent, "warm"); err != nil {
			return 0, err
		}
		memBase = h.MemoryUsedBytes()
		clone, err := h.CloneVM(parent, "fast")
		if err != nil {
			return 0, err
		}
		cloneMB := float64(h.MemoryUsedBytes()-memBase) / (1 << 20)
		cloneMS := float64(clone.CreateTime) / float64(time.Millisecond)

		// Store-backed clone on its own host: same fork, but the child
		// inherits the parent's registry via an O(1) xenstore snapshot
		// graft rather than a per-entry rewrite.
		hxs, err := core.NewHost(sched.Machine{Name: "clone-host-xs", Cores: 4, Dom0Cores: 1, MemoryGB: 64}, o.Seed)
		if err != nil {
			return 0, err
		}
		parentXS, err := hxs.CreateVM(toolstack.ModeChaosXS, "parent", img)
		if err != nil {
			return 0, err
		}
		if _, err := hxs.CloneVM(parentXS, "warm"); err != nil {
			return 0, err
		}
		cloneXS, err := hxs.CloneVM(parentXS, "fast")
		if err != nil {
			return 0, err
		}
		cloneXSMS := float64(cloneXS.CreateTime) / float64(time.Millisecond)

		rows[i] = cloneRow{bootMS, cloneMS, cloneXSMS, bootMB, cloneMB}
		return max(h.Clock.Now().Milliseconds(), hxs.Clock.Now().Milliseconds()), nil
	})
	if err != nil {
		return Result{}, err
	}
	names := ""
	for i, r := range rows {
		t.AddRow(float64(i), r.bootMS, r.cloneMS, r.cloneXSMS, r.bootMB, r.cloneMB)
		if i > 0 {
			names += ", "
		}
		names += fmt.Sprintf("%d=%s", i, images[i].Name)
	}
	t.Note("rows: %s", names)
	t.Note("related work §8 (Potemkin): clones resume instead of booting and share COW memory; the win grows with guest weight")
	t.Note("clone_xs_ms: store-backed clone whose registry arrives via an O(1) xenstore snapshot graft")
	return Result{Paper: "§8: image cloning vs LightVM's general-purpose fast boots", Table: t, VirtualMS: virtMS}, nil
}
