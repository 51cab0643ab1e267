package experiments

import (
	"fmt"
	"time"

	"lightvm/internal/container"
	"lightvm/internal/core"
	"lightvm/internal/costs"
	"lightvm/internal/guest"
	"lightvm/internal/metrics"
	"lightvm/internal/migrate"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
	"lightvm/internal/toolstack"
)

func init() {
	register("fig12a", fig12a)
	register("fig12b", fig12b)
	register("fig13", fig13)
	register("fig14", fig14)
	register("fig15", fig15)
}

// ckptModes are the Fig. 12/13 configurations.
var ckptModes = []struct {
	mode  toolstack.Mode
	label string
}{
	{toolstack.ModeXL, "xl"},
	{toolstack.ModeChaosXS, "chaos_xs"},
	{toolstack.ModeChaosNoXS, "lightvm"}, // checkpoint path == noxs + chaos
}

// checkpointSweep grows a host to each sampled population and
// checkpoints batches of 10 randomly chosen guests (the paper's
// procedure), returning mean save and restore times per point.
func checkpointSweep(mode toolstack.Mode, n int, points []int, seed uint64) (save, restore map[int]float64, err error) {
	h, err := core.NewHost(sched.Xeon4Ckpt, seed)
	if err != nil {
		return nil, nil, err
	}
	drv := h.Driver(mode)
	rng := sim.NewRNG(seed)
	img := guest.Daytime()
	save = map[int]float64{}
	restore = map[int]float64{}
	running := 0
	nextID := 0
	for _, p := range points {
		for running < p {
			nextID++
			if _, err := drv.Create(fmt.Sprintf("g%d", nextID), img); err != nil {
				return nil, nil, err
			}
			running++
		}
		var saveSum, restSum time.Duration
		const batch = 10
		done := 0
		for b := 0; b < batch; b++ {
			// Pick a random running guest.
			name := fmt.Sprintf("g%d", 1+rng.Intn(nextID))
			vm, err := h.Env.VM(name)
			if err != nil {
				continue // mid-checkpoint this round; skip
			}
			cp, st, err := migrate.Save(h.Env, vm)
			if err != nil {
				return nil, nil, err
			}
			saveSum += st
			_, rt, err := migrate.Restore(h.Env, cp)
			if err != nil {
				return nil, nil, err
			}
			restSum += rt
			done++
		}
		if done == 0 {
			continue
		}
		save[p] = float64(saveSum) / float64(done) / float64(time.Millisecond)
		restore[p] = float64(restSum) / float64(done) / float64(time.Millisecond)
	}
	return save, restore, nil
}

func fig12(o Options, which string) (Result, error) {
	n := o.scaled(1000, 20)
	points := o.samplePoints(n)
	title := "Figure 12a: save times (daytime unikernel)"
	if which == "restore" {
		title = "Figure 12b: restore times (daytime unikernel)"
	}
	t := metrics.NewTable(title, "n", "xl_ms", "chaos_xs_ms", "lightvm_ms")
	cols := make([]map[int]float64, len(ckptModes))
	// One independent host+clock per toolstack configuration.
	err := o.runSeries(len(ckptModes), func(i int) error {
		s, r, err := checkpointSweep(ckptModes[i].mode, n, points, o.Seed)
		if err != nil {
			return err
		}
		if which == "save" {
			cols[i] = s
		} else {
			cols[i] = r
		}
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	for _, p := range points {
		t.AddRow(float64(p), cols[0][p], cols[1][p], cols[2][p])
	}
	t.Note("paper: LightVM saves ~30ms / restores ~20ms flat; xl ~128ms / ~550ms")
	id := "fig12a"
	paper := "LightVM save ≈30ms regardless of N; xl ≈128ms"
	if which == "restore" {
		id = "fig12b"
		paper = "LightVM restore ≈20ms regardless of N; xl ≈550ms"
	}
	return Result{ID: id, Paper: paper, Table: t}, nil
}

func fig12a(o Options) (Result, error) { return fig12(o, "save") }
func fig12b(o Options) (Result, error) { return fig12(o, "restore") }

// fig13 — migration times for the daytime unikernel, batches of 10
// at growing populations, across toolstacks.
func fig13(o Options) (Result, error) {
	n := o.scaled(1000, 20)
	points := o.samplePoints(n)
	t := metrics.NewTable("Figure 13: migration times (daytime unikernel)",
		"n", "xl_ms", "chaos_xs_ms", "lightvm_ms")
	cols := make([]map[int]float64, len(ckptModes))
	virtMS := make([]float64, len(ckptModes))
	// Each driver pair (src+dst hosts on a shared clock) is an isolated
	// timeline — sweep the toolstacks in parallel.
	err := o.runSeries(len(ckptModes), func(i int) error {
		clock := sim.NewClock()
		src, err := core.NewHostOn(clock, sched.Xeon4Ckpt, o.Seed)
		if err != nil {
			return err
		}
		dst, err := core.NewHostOn(clock, sched.Machine{Name: "dst", Cores: 4, Dom0Cores: 2, MemoryGB: 512}, o.Seed+1)
		if err != nil {
			return err
		}
		drv := src.Driver(ckptModes[i].mode)
		rng := sim.NewRNG(o.Seed + uint64(i))
		img := guest.Daytime()
		vals := map[int]float64{}
		running, nextID, migID := 0, 0, 0
		for _, p := range points {
			for running < p {
				nextID++
				if _, err := drv.Create(fmt.Sprintf("g%d", nextID), img); err != nil {
					return err
				}
				running++
			}
			var sum time.Duration
			const batch = 10
			migrated := 0
			for b := 0; b < batch; b++ {
				name := fmt.Sprintf("g%d", 1+rng.Intn(nextID))
				vm, err := src.Env.VM(name)
				if err != nil {
					continue // already migrated
				}
				_, d, err := src.MigrateTo(dst, vm)
				if err != nil {
					return err
				}
				sum += d
				migrated++
				running--
				// Replace the migrated guest to keep N constant (the
				// paper's procedure).
				migID++
				if _, err := drv.Create(fmt.Sprintf("r%d-%d", i, migID), img); err != nil {
					return err
				}
				running++
			}
			if migrated > 0 {
				vals[p] = float64(sum) / float64(migrated) / float64(time.Millisecond)
			}
		}
		cols[i] = vals
		virtMS[i] = clock.Now().Milliseconds()
		return nil
	})
	if err != nil {
		return Result{}, err
	}
	for _, p := range points {
		t.AddRow(float64(p), cols[0][p], cols[1][p], cols[2][p])
	}
	t.Note("paper: LightVM ~60ms flat; chaos[XS] slightly faster at low N (noxs device destruction unoptimized); xl grows with N")
	return Result{ID: "fig13", Paper: "LightVM migrates in ~60ms regardless of N", Table: t, VirtualMS: maxOf(virtMS)}, nil
}

// fig14 — memory usage vs number of guests for Debian, Tinyx,
// Docker/Micropython, the Minipython unikernel, and processes.
func fig14(o Options) (Result, error) {
	n := o.scaled(1000, 20)
	points := o.samplePoints(n)
	wanted := map[int]bool{}
	for _, p := range points {
		wanted[p] = true
	}
	big := sched.Machine{Name: "mem-host", Cores: 4, Dom0Cores: 1, MemoryGB: 160}
	vmSweep := func(img guest.Image) (map[int]float64, float64, error) {
		h, err := core.NewHost(big, o.Seed)
		if err != nil {
			return nil, 0, err
		}
		base := h.MemoryUsedBytes()
		drv := h.Driver(toolstack.ModeChaosNoXS)
		out := map[int]float64{}
		for i := 1; i <= n; i++ {
			if _, err := drv.Create(fmt.Sprintf("g%d", i), img); err != nil {
				return nil, 0, err
			}
			if wanted[i] {
				out[i] = float64(h.MemoryUsedBytes()-base) / (1 << 20)
			}
		}
		return out, h.Clock.Now().Milliseconds(), nil
	}
	// Five independent hosts: three VM flavors, Docker, and raw
	// processes.
	cols := make([]map[int]float64, 5)
	virtMS := make([]float64, 5)
	err := o.runSeries(5, func(j int) error {
		switch j {
		case 0:
			m, v, err := vmSweep(guest.DebianMicropython())
			cols[j], virtMS[j] = m, v
			return err
		case 1:
			m, v, err := vmSweep(guest.TinyxMicropython())
			cols[j], virtMS[j] = m, v
			return err
		case 2:
			m, v, err := vmSweep(guest.Minipython())
			cols[j], virtMS[j] = m, v
			return err
		case 3:
			// Docker/Micropython.
			h, err := core.NewHost(big, o.Seed)
			if err != nil {
				return err
			}
			base := h.MemoryUsedBytes()
			docker := map[int]float64{}
			for i := 1; i <= n; i++ {
				if _, err := h.Docker.Run("micropython"); err != nil {
					return err
				}
				if wanted[i] {
					docker[i] = float64(h.MemoryUsedBytes()-base) / (1 << 20)
				}
			}
			cols[j], virtMS[j] = docker, h.Clock.Now().Milliseconds()
			return nil
		default:
			// Micropython processes.
			h, err := core.NewHost(big, o.Seed)
			if err != nil {
				return err
			}
			base := h.MemoryUsedBytes()
			procs := map[int]float64{}
			perProc := uint64(container.ProcessMicropyBytes())
			for i := 1; i <= n; i++ {
				if _, err := h.Procs.Spawn(perProc); err != nil {
					return err
				}
				if wanted[i] {
					procs[i] = float64(h.MemoryUsedBytes()-base) / (1 << 20)
				}
			}
			cols[j], virtMS[j] = procs, h.Clock.Now().Milliseconds()
			return nil
		}
	})
	if err != nil {
		return Result{}, err
	}
	debian, tinyx, minipy, docker, procs := cols[0], cols[1], cols[2], cols[3], cols[4]
	t := metrics.NewTable("Figure 14: memory usage vs number of instances (MB)",
		"n", "debian_mb", "tinyx_mb", "docker_mb", "minipython_mb", "process_mb")
	for _, p := range points {
		t.AddRow(float64(p), debian[p], tinyx[p], docker[p], minipy[p], procs[p])
	}
	t.Note("paper @1000: debian ≈114GB, tinyx ≈27GB, docker ≈5GB, minipython close to docker")
	return Result{ID: "fig14", Paper: "unikernel memory close to Docker; Tinyx +22GB at 1000; Debian ~114GB", Table: t, VirtualMS: maxOf(virtMS)}, nil
}

// fig15 — CPU utilization vs number of guests for noop unikernel,
// Tinyx, Debian and Docker.
func fig15(o Options) (Result, error) {
	n := o.scaled(1000, 20)
	points := o.samplePoints(n)
	wanted := map[int]bool{}
	for _, p := range points {
		wanted[p] = true
	}
	big := sched.Machine{Name: "cpu-host", Cores: 4, Dom0Cores: 1, MemoryGB: 160}
	vmSweep := func(img guest.Image) (map[int]float64, float64, error) {
		h, err := core.NewHost(big, o.Seed)
		if err != nil {
			return nil, 0, err
		}
		drv := h.Driver(toolstack.ModeChaosNoXS)
		out := map[int]float64{}
		for i := 1; i <= n; i++ {
			if _, err := drv.Create(fmt.Sprintf("g%d", i), img); err != nil {
				return nil, 0, err
			}
			if wanted[i] {
				out[i] = h.CPUUtilization() * 100
			}
		}
		return out, h.Clock.Now().Milliseconds(), nil
	}
	// Four independent hosts: three guest flavors plus Docker.
	cols := make([]map[int]float64, 4)
	virtMS := make([]float64, 4)
	err := o.runSeries(4, func(j int) error {
		switch j {
		case 0:
			m, v, err := vmSweep(guest.DebianMinimal())
			cols[j], virtMS[j] = m, v
			return err
		case 1:
			m, v, err := vmSweep(guest.TinyxNoop())
			cols[j], virtMS[j] = m, v
			return err
		case 2:
			m, v, err := vmSweep(guest.Noop())
			cols[j], virtMS[j] = m, v
			return err
		default:
			// Docker: idle containers, utilization from duty cycles.
			h, err := core.NewHost(big, o.Seed)
			if err != nil {
				return err
			}
			docker := map[int]float64{}
			for i := 1; i <= n; i++ {
				if _, err := h.Docker.Run("noop"); err != nil {
					return err
				}
				h.Env.Sched.AddGuest(0, 0, 0, costs.DockerUtilDuty)
				if wanted[i] {
					docker[i] = h.CPUUtilization() * 100
				}
			}
			cols[j], virtMS[j] = docker, h.Clock.Now().Milliseconds()
			return nil
		}
	})
	if err != nil {
		return Result{}, err
	}
	debian, tinyx, uni, docker := cols[0], cols[1], cols[2], cols[3]
	t := metrics.NewTable("Figure 15: CPU utilization (%) vs number of guests",
		"n", "debian_pct", "tinyx_pct", "unikernel_pct", "docker_pct")
	for _, p := range points {
		t.AddRow(float64(p), debian[p], tinyx[p], uni[p], docker[p])
	}
	t.Note("paper @1000: debian ≈25%%, tinyx ≈1%%, unikernel a fraction above docker (lowest)")
	return Result{ID: "fig15", Paper: "Debian ~25% at 1000 guests; Tinyx ~1%; unikernel ≈ Docker", Table: t, VirtualMS: maxOf(virtMS)}, nil
}
