package experiments

import (
	"fmt"
	"time"

	"lightvm/internal/core"
	"lightvm/internal/guest"
	"lightvm/internal/metrics"
	"lightvm/internal/sched"
	"lightvm/internal/syscalls"
	"lightvm/internal/toolstack"
)

func init() {
	register("fig01", fig01)
	register("fig02", fig02)
	register("fig04", fig04)
	register("fig05", fig05)
	register("tbl-guests", tblGuests)
}

// fig01 — "The unrelenting growth of the Linux syscall API over the
// years (x86_32)".
func fig01(Options) (Result, error) {
	t := metrics.NewTable("Figure 1: Linux syscall API growth (x86_32)", "year", "syscalls")
	for _, r := range syscalls.Sorted() {
		t.AddRow(float64(r.Year), float64(r.Syscalls))
	}
	t.Note("growth ≈ %.1f syscalls/year; x86 VM ABI surface ≈ %d interaction points",
		syscalls.GrowthPerYear(), syscalls.X86ABISurface)
	return Result{Paper: "~200 syscalls in 2002 growing to ~400 by 2018", Table: t}, nil
}

// fig02 — "Boot times grow linearly with VM image size": the same
// daytime unikernel padded with binary objects from ~0 to 1000 MB,
// booted from a ramdisk with stock xl.
func fig02(o Options) (Result, error) {
	t := metrics.NewTable("Figure 2: boot time vs VM image size (xl, padded daytime unikernel)",
		"image_mb", "boot_ms")
	maxMB := o.scaled(1000, 50)
	step := maxMB / 10
	if step == 0 {
		step = 1
	}
	// Each padding point boots on a fresh host with its own timeline,
	// so the points run as cells.
	type point struct{ imageMB, bootMS float64 }
	pts := make([]point, maxMB/step+1)
	virt, err := o.cells(len(pts), func(i int) (float64, error) {
		h, err := core.NewHost(sched.Xeon4, o.Seed)
		if err != nil {
			return 0, err
		}
		img := guest.Daytime().WithPadding(uint64(i*step) << 20)
		vm, err := h.CreateVM(toolstack.ModeXL, "padded", img)
		if err != nil {
			return 0, err
		}
		pts[i] = point{float64(img.TotalSize()) / (1 << 20), ms(vm.CreateTime + vm.BootTime)}
		return h.Clock.Now().Milliseconds(), nil
	})
	if err != nil {
		return Result{}, err
	}
	for _, p := range pts {
		t.AddRow(p.imageMB, p.bootMS)
	}
	t.Note("paper slope ≈ 1 ms/MB up to ~1 s at 1000 MB")
	return Result{Paper: "boot time grows linearly with image size, ~1s at 1GB", Table: t, VirtualMS: virt}, nil
}

// fig04 — domain creation and boot times for Debian, Tinyx, the
// daytime unikernel (xl on the 4-core Xeon), Docker containers and
// processes, for 1..1000 running instances.
func fig04(o Options) (Result, error) {
	t := metrics.NewTable("Figure 4: create/boot times vs number of running guests (xl)",
		"n", "debian_create_ms", "debian_boot_ms", "tinyx_create_ms", "tinyx_boot_ms",
		"unikernel_create_ms", "unikernel_boot_ms", "docker_run_ms", "process_ms")
	machine := sched.Machine{Name: "xeon-big", Cores: 4, Dom0Cores: 1, MemoryGB: 192}
	vmCurve := func(img guest.Image) curve {
		return curve{machine: machine, cols: 2, setup: func(h *core.Host) (step, error) {
			drv := h.Driver(toolstack.ModeXL)
			return func(i int, rec []float64) error {
				vm, err := drv.Create(fmt.Sprintf("%s-%d", img.Name, i), img)
				if err != nil {
					return fmt.Errorf("fig04 %s: %w", img.Name, err)
				}
				if rec != nil {
					rec[0], rec[1] = ms(vm.CreateTime), ms(vm.BootTime)
				}
				return nil
			}, nil
		}}
	}
	// Docker and process baselines share one host, as on the testbed.
	baselines := curve{machine: machine, cols: 2, setup: func(h *core.Host) (step, error) {
		return func(i int, rec []float64) error {
			c, err := h.Docker.Run("noop")
			if err != nil {
				return err
			}
			lat, err := h.Procs.Spawn(1 << 20)
			if err != nil {
				return err
			}
			if rec != nil {
				rec[0], rec[1] = ms(c.StartTime), ms(lat)
			}
			return nil
		}, nil
	}}
	pop, err := o.sweep(o.scaled(1000, 20),
		vmCurve(guest.DebianMinimal()), vmCurve(guest.TinyxNoop()), vmCurve(guest.Daytime()), baselines)
	if err != nil {
		return Result{}, err
	}
	pop.addRows(t)
	t.Note("paper @N=0: debian 500ms+1.5s, tinyx 360ms+180ms, unikernel 80ms+3ms, docker ~200ms, process 3.5ms")
	t.Note("paper @N=1000 create: debian 42s, tinyx 10s, unikernel 700ms (our model reproduces ordering and growth, compressed magnitudes for the Linux guests; see EXPERIMENTS.md)")
	return Result{Paper: "creation grows with N; VM size ordering debian≫tinyx≫unikernel", Table: t, VirtualMS: pop.virtMS}, nil
}

// ms converts a duration to milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// fig05 — breakdown of xl creation overhead by category vs number of
// running guests (daytime unikernel).
func fig05(o Options) (Result, error) {
	t := metrics.NewTable("Figure 5: xl creation-time breakdown vs running guests",
		"n", "toolstack_ms", "load_ms", "devices_ms", "xenstore_ms", "hypervisor_ms", "config_ms")
	img := guest.Daytime()
	pop, err := o.sweep(o.scaled(1000, 20), curve{machine: sched.Xeon4, cols: 6, setup: func(h *core.Host) (step, error) {
		drv := h.Driver(toolstack.ModeXL)
		return func(i int, rec []float64) error {
			vm, err := drv.Create(fmt.Sprintf("g%d", i), img)
			if err != nil || rec == nil {
				return err
			}
			b := vm.LastBreakdown
			copy(rec, []float64{ms(b.Toolstack), ms(b.Load), ms(b.Devices), ms(b.XenStore), ms(b.Hypervisor), ms(b.Config)})
			return nil
		}, nil
	}})
	if err != nil {
		return Result{}, err
	}
	pop.addRows(t)
	t.Note("paper: xenstore grows superlinearly, devices stay ~constant and dominate at low N; log-rotation spikes")
	return Result{Paper: "XenStore interactions and device creation dominate; store cost grows with N", Table: t, VirtualMS: pop.virtMS}, nil
}

// tblGuests — the §3/§6 guest inventory (image size, runtime memory).
func tblGuests(Options) (Result, error) {
	t := metrics.NewTable("Guest inventory (paper §3, §6)",
		"idx", "image_mb", "runtime_mb", "boot_work_ms", "devices")
	names := ""
	for i, r := range core.GuestTable() {
		t.AddRow(float64(i), r.ImageMB, r.RuntimeMB,
			float64(r.BootWork)/float64(time.Millisecond), float64(r.DeviceCount))
		if i > 0 {
			names += ", "
		}
		names += fmt.Sprintf("%d=%s", i, r.Name)
	}
	t.Note("rows: %s", names)
	t.Note("paper: daytime 480KB/3.6MB, minipython ~1MB/8MB, tinyx ~10MB/30MB, debian 1.1GB/111MB")
	return Result{Paper: "guest image sizes and runtime footprints", Table: t}, nil
}
