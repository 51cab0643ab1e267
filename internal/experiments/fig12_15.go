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

// ckptModes are the Fig. 12/13 configurations, in the tables' xl,
// chaos_xs, lightvm column order (the LightVM checkpoint path is noxs
// plus chaos).
var ckptModes = []toolstack.Mode{toolstack.ModeXL, toolstack.ModeChaosXS, toolstack.ModeChaosNoXS}

// batchMean runs op on a batch of 10 guests picked at random from
// g1..g<i> (the paper's procedure), skipping picks no longer on h, and
// returns op's mean time (ms; 0 when every pick was skipped).
func batchMean(h *core.Host, rng *sim.RNG, i int, op func(vm *toolstack.VM) (time.Duration, error)) (float64, error) {
	var sum time.Duration
	done := 0
	for b := 0; b < 10; b++ {
		vm, err := h.Env.VM(fmt.Sprintf("g%d", 1+rng.Intn(i)))
		if err != nil {
			continue // checkpointed or migrated away this round
		}
		d, err := op(vm)
		if err != nil {
			return 0, err
		}
		sum += d
		done++
	}
	if done == 0 {
		return 0, nil
	}
	return float64(sum) / float64(done) / float64(time.Millisecond), nil
}

func fig12(o Options, which string) (Result, error) {
	title, paper := "Figure 12a: save times (daytime unikernel)", "LightVM save ≈30ms regardless of N; xl ≈128ms"
	if which == "restore" {
		title, paper = "Figure 12b: restore times (daytime unikernel)", "LightVM restore ≈20ms regardless of N; xl ≈550ms"
	}
	t := metrics.NewTable(title, "n", "xl_ms", "chaos_xs_ms", "lightvm_ms")
	img := guest.Daytime()
	// One independent host+clock per toolstack configuration. At each
	// sampled population the curve saves and restores a batch of
	// guests and reads the mean save or restore time.
	curves := make([]curve, len(ckptModes))
	for j, mode := range ckptModes {
		curves[j] = curve{machine: sched.Xeon4Ckpt, setup: func(h *core.Host) (step, error) {
			drv, rng := h.Driver(mode), sim.NewRNG(o.Seed)
			return func(i int, rec []float64) error {
				if _, err := drv.Create(fmt.Sprintf("g%d", i), img); err != nil || rec == nil {
					return err
				}
				var err error
				rec[0], err = batchMean(h, rng, i, func(vm *toolstack.VM) (time.Duration, error) {
					cp, st, err := migrate.Save(h.Env, vm)
					if err != nil {
						return 0, err
					}
					_, rt, err := migrate.Restore(h.Env, cp)
					if which == "restore" {
						return rt, err
					}
					return st, err
				})
				return err
			}, nil
		}}
	}
	pop, err := o.sweep(o.scaled(1000, 20), curves...)
	if err != nil {
		return Result{}, err
	}
	pop.addRows(t)
	t.Note("paper: LightVM saves ~30ms / restores ~20ms flat; xl ~128ms / ~550ms")
	return Result{Paper: paper, Table: t}, nil
}

func fig12a(o Options) (Result, error) { return fig12(o, "save") }
func fig12b(o Options) (Result, error) { return fig12(o, "restore") }

// fig13 — migration times for the daytime unikernel, batches of 10
// at growing populations, across toolstacks.
func fig13(o Options) (Result, error) {
	t := metrics.NewTable("Figure 13: migration times (daytime unikernel)",
		"n", "xl_ms", "chaos_xs_ms", "lightvm_ms")
	img := guest.Daytime()
	// Each driver pair (src+dst hosts on a shared clock) is an isolated
	// timeline: the curve's host is the source, and setup builds the
	// destination on its clock.
	curves := make([]curve, len(ckptModes))
	for j, mode := range ckptModes {
		curves[j] = curve{machine: sched.Xeon4Ckpt, setup: func(src *core.Host) (step, error) {
			dst, err := core.NewHostOn(src.Clock, sched.Machine{Name: "dst", Cores: 4, Dom0Cores: 2, MemoryGB: 512}, o.Seed+1)
			if err != nil {
				return nil, err
			}
			drv, rng := src.Driver(mode), sim.NewRNG(o.Seed+uint64(j))
			migID := 0
			return func(i int, rec []float64) error {
				if _, err := drv.Create(fmt.Sprintf("g%d", i), img); err != nil || rec == nil {
					return err
				}
				var err error
				rec[0], err = batchMean(src, rng, i, func(vm *toolstack.VM) (time.Duration, error) {
					_, d, err := src.MigrateTo(dst, vm)
					if err != nil {
						return 0, err
					}
					// Replace the migrated guest to keep N constant (the
					// paper's procedure).
					migID++
					_, err = drv.Create(fmt.Sprintf("r%d-%d", j, migID), img)
					return d, err
				})
				return err
			}, nil
		}}
	}
	pop, err := o.sweep(o.scaled(1000, 20), curves...)
	if err != nil {
		return Result{}, err
	}
	pop.addRows(t)
	t.Note("paper: LightVM ~60ms flat; chaos[XS] slightly faster at low N (noxs device destruction unoptimized); xl grows with N")
	return Result{Paper: "LightVM migrates in ~60ms regardless of N", Table: t, VirtualMS: pop.virtMS}, nil
}

// memCurve grows a population on machine by the step setup returns
// and reads the memory (MB) the host has used since before setup ran,
// so before any driver was built.
func memCurve(machine sched.Machine, setup func(h *core.Host) func(i int) error) curve {
	return curve{machine: machine, setup: func(h *core.Host) (step, error) {
		base := h.MemoryUsedBytes()
		add := setup(h)
		return func(i int, rec []float64) error {
			err := add(i)
			if err == nil && rec != nil {
				rec[0] = float64(h.MemoryUsedBytes()-base) / (1 << 20)
			}
			return err
		}, nil
	}}
}

// fig14 — memory usage vs number of guests for Debian, Tinyx,
// Docker/Micropython, the Minipython unikernel, and processes.
func fig14(o Options) (Result, error) {
	big := sched.Machine{Name: "mem-host", Cores: 4, Dom0Cores: 1, MemoryGB: 160}
	vmCurve := func(img guest.Image) curve {
		return memCurve(big, func(h *core.Host) func(int) error {
			drv := h.Driver(toolstack.ModeChaosNoXS)
			return func(i int) error {
				_, err := drv.Create(fmt.Sprintf("g%d", i), img)
				return err
			}
		})
	}
	docker := memCurve(big, func(h *core.Host) func(int) error {
		return func(int) error {
			_, err := h.Docker.Run("micropython")
			return err
		}
	})
	procs := memCurve(big, func(h *core.Host) func(int) error {
		return func(int) error {
			_, err := h.Procs.Spawn(container.ProcessMicropyBytes())
			return err
		}
	})
	pop, err := o.sweep(o.scaled(1000, 20),
		vmCurve(guest.DebianMicropython()), vmCurve(guest.TinyxMicropython()), docker, vmCurve(guest.Minipython()), procs)
	if err != nil {
		return Result{}, err
	}
	t := metrics.NewTable("Figure 14: memory usage vs number of instances (MB)",
		"n", "debian_mb", "tinyx_mb", "docker_mb", "minipython_mb", "process_mb")
	pop.addRows(t)
	t.Note("paper @1000: debian ≈114GB, tinyx ≈27GB, docker ≈5GB, minipython close to docker")
	return Result{Paper: "unikernel memory close to Docker; Tinyx +22GB at 1000; Debian ~114GB", Table: t, VirtualMS: pop.virtMS}, nil
}

// fig15 — CPU utilization vs number of guests for noop unikernel,
// Tinyx, Debian and Docker.
func fig15(o Options) (Result, error) {
	big := sched.Machine{Name: "cpu-host", Cores: 4, Dom0Cores: 1, MemoryGB: 160}
	util := func(h *core.Host, rec []float64) {
		if rec != nil {
			rec[0] = h.CPUUtilization() * 100
		}
	}
	vmCurve := func(img guest.Image) curve {
		return curve{machine: big, setup: func(h *core.Host) (step, error) {
			drv := h.Driver(toolstack.ModeChaosNoXS)
			return func(i int, rec []float64) error {
				if _, err := drv.Create(fmt.Sprintf("g%d", i), img); err != nil {
					return err
				}
				util(h, rec)
				return nil
			}, nil
		}}
	}
	// Docker: idle containers, utilization from duty cycles.
	docker := curve{machine: big, setup: func(h *core.Host) (step, error) {
		return func(i int, rec []float64) error {
			if _, err := h.Docker.Run("noop"); err != nil {
				return err
			}
			h.Env.Sched.AddGuest(0, 0, 0, costs.DockerUtilDuty)
			util(h, rec)
			return nil
		}, nil
	}}
	pop, err := o.sweep(o.scaled(1000, 20),
		vmCurve(guest.DebianMinimal()), vmCurve(guest.TinyxNoop()), vmCurve(guest.Noop()), docker)
	if err != nil {
		return Result{}, err
	}
	t := metrics.NewTable("Figure 15: CPU utilization (%) vs number of guests",
		"n", "debian_pct", "tinyx_pct", "unikernel_pct", "docker_pct")
	pop.addRows(t)
	t.Note("paper @1000: debian ≈25%%, tinyx ≈1%%, unikernel a fraction above docker (lowest)")
	return Result{Paper: "Debian ~25% at 1000 guests; Tinyx ~1%; unikernel ≈ Docker", Table: t, VirtualMS: pop.virtMS}, nil
}
