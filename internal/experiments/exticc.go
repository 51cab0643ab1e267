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
	register("ext-icc", extICC)
}

// extICC — the §8 related-work comparison against Intel Clear
// Containers: "an ICC guest is 70MB and boots in 500ms as opposed to a
// Tinyx one which is about 10MB and boots in about 300ms." We boot all
// three LightVM-era options next to an ICC-style guest on the same
// host and report boot time and footprint.
func extICC(o Options) (Result, error) {
	type contender struct {
		label string
		img   guest.Image
		mode  toolstack.Mode
	}
	contenders := []contender{
		{"icc", guest.ClearContainer(), toolstack.ModeChaosXS},
		{"tinyx", guest.TinyxNoop(), toolstack.ModeChaosXS},
		{"unikernel", guest.Daytime(), toolstack.ModeLightVM},
	}
	t := metrics.NewTable("Extension: Intel Clear Containers comparison (§8)",
		"idx", "boot_ms", "image_mb", "runtime_mb")
	names := ""
	for i, c := range contenders {
		h, err := core.NewHost(sched.Xeon4, o.Seed)
		if err != nil {
			return Result{}, err
		}
		if err := h.EnsureFlavor(c.img, c.mode); err != nil {
			return Result{}, err
		}
		vm, err := h.CreateVM(c.mode, c.label, c.img)
		if err != nil {
			return Result{}, err
		}
		t.AddRow(float64(i),
			float64(vm.CreateTime+vm.BootTime)/float64(time.Millisecond),
			float64(c.img.SizeBytes)/(1<<20),
			float64(c.img.MemBytes)/(1<<20))
		if i > 0 {
			names += ", "
		}
		names += fmt.Sprintf("%d=%s", i, c.label)
	}
	t.Note("rows: %s", names)
	t.Note("paper §8: ICC 70MB/500ms vs Tinyx ~10MB/~300ms; LightVM unikernels are far below both")
	return Result{Paper: "§8: ICC guests are 7× larger and slower to boot than Tinyx", Table: t}, nil
}
