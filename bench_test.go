package lightvm_test

import (
	"fmt"
	"testing"

	"lightvm"
	"lightvm/internal/devd"
	"lightvm/internal/sim"
	"lightvm/internal/xenstore"
)

// Figure/table benchmarks: each iteration regenerates one paper figure
// end-to-end (system construction, workload, measurement). benchScale
// trades fidelity for wall-clock time; `go run ./cmd/lightvm-bench
// -scale 1.0` reproduces the full paper-scale tables.
const benchScale = 0.25

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := lightvm.RunExperimentsOpts([]string{id}, lightvm.ExperimentOptions{Scale: benchScale, Seed: uint64(i) + 1, Parallel: 1})
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if len(res[0].Output) == 0 {
			b.Fatalf("%s produced no output", id)
		}
	}
}

func BenchmarkFig01SyscallGrowth(b *testing.B)       { benchExperiment(b, "fig01") }
func BenchmarkFig02BootVsImageSize(b *testing.B)     { benchExperiment(b, "fig02") }
func BenchmarkFig04CreateBootByGuest(b *testing.B)   { benchExperiment(b, "fig04") }
func BenchmarkFig05CreationBreakdown(b *testing.B)   { benchExperiment(b, "fig05") }
func BenchmarkFig09ToolstackComparison(b *testing.B) { benchExperiment(b, "fig09") }
func BenchmarkFig10DensityVsDocker(b *testing.B)     { benchExperiment(b, "fig10") }
func BenchmarkFig11BootUnderLoad(b *testing.B)       { benchExperiment(b, "fig11") }
func BenchmarkFig12aSave(b *testing.B)               { benchExperiment(b, "fig12a") }
func BenchmarkFig12bRestore(b *testing.B)            { benchExperiment(b, "fig12b") }
func BenchmarkFig13Migration(b *testing.B)           { benchExperiment(b, "fig13") }
func BenchmarkFig14MemoryFootprint(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFig15CPUUsage(b *testing.B)            { benchExperiment(b, "fig15") }
func BenchmarkFig16aFirewalls(b *testing.B)          { benchExperiment(b, "fig16a") }
func BenchmarkFig16bJITInstantiation(b *testing.B)   { benchExperiment(b, "fig16b") }
func BenchmarkFig16cTLSTermination(b *testing.B)     { benchExperiment(b, "fig16c") }
func BenchmarkFig17ComputeService(b *testing.B)      { benchExperiment(b, "fig17") }
func BenchmarkFig18ConcurrentVMs(b *testing.B)       { benchExperiment(b, "fig18") }
func BenchmarkGuestTable(b *testing.B)               { benchExperiment(b, "tbl-guests") }

// ---------------------------------------------------------------------------
// Micro-benchmarks of the primitives the paper's claims rest on.
// ---------------------------------------------------------------------------

// BenchmarkCreateLightVM measures one full create+boot+destroy cycle
// through the complete LightVM control plane (the 2.3 ms headline is
// virtual time; this measures the simulator's real cost).
func BenchmarkCreateLightVM(b *testing.B) {
	host, err := lightvm.NewHost(lightvm.Xeon4, 1)
	if err != nil {
		b.Fatal(err)
	}
	img := lightvm.Noop()
	if err := host.EnsureFlavor(img, lightvm.ModeLightVM); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := host.Replenish(); err != nil {
			b.Fatal(err)
		}
		vm, err := host.CreateVM(lightvm.ModeLightVM, "bench", img)
		if err != nil {
			b.Fatal(err)
		}
		if err := host.DestroyVM(vm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCreateXL is the same cycle through the stock toolstack.
func BenchmarkCreateXL(b *testing.B) { benchCreateXL(b, 0) }

// BenchmarkCreateXLGuests is BenchmarkCreateXL on a host already
// running 1,000 daytime guests: xl's per-creation work that grows with
// the guest count (listing /local/domain, the unique-name scan) only
// shows on a populated host.
func BenchmarkCreateXLGuests(b *testing.B) { benchCreateXL(b, 1000) }

func benchCreateXL(b *testing.B, guests int) {
	host, err := lightvm.NewHost(lightvm.Xeon4, 1)
	if err != nil {
		b.Fatal(err)
	}
	img := lightvm.Daytime()
	for i := 0; i < guests; i++ {
		if _, err := host.CreateVM(lightvm.ModeXL, fmt.Sprintf("guest%d", i), img); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vm, err := host.CreateVM(lightvm.ModeXL, "bench", img)
		if err != nil {
			b.Fatal(err)
		}
		if err := host.DestroyVM(vm); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation benches for the design choices DESIGN.md calls out. These
// report the *virtual-time* cost per operation via custom metrics, so
// the ablation's effect is visible directly in the bench output.
// ---------------------------------------------------------------------------

// BenchmarkAblationHotplug compares bash hotplug scripts vs xendevd
// (§5.3) on the same switch plumbing.
func BenchmarkAblationHotplug(b *testing.B) {
	run := func(b *testing.B, hp func(*sim.Clock) devd.Hotplug) {
		clock := sim.NewClock()
		h := hp(clock)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := h.Setup(1, 0); err != nil {
				b.Fatal(err)
			}
			if err := h.Teardown(1, 0); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(clock.Now().Seconds()/float64(b.N)*1e3, "virt-ms/op")
	}
	b.Run("bash-scripts", func(b *testing.B) {
		run(b, func(c *sim.Clock) devd.Hotplug {
			return &devd.BashScripts{Clock: c, Bridge: devd.NewBridge()}
		})
	})
	b.Run("xendevd", func(b *testing.B) {
		run(b, func(c *sim.Clock) devd.Hotplug {
			return &devd.Xendevd{Clock: c, Bridge: devd.NewBridge()}
		})
	})
}

// BenchmarkAblationLogRotation measures XenStore op cost with the
// 20-file access log enabled (stock oxenstored) vs disabled.
func BenchmarkAblationLogRotation(b *testing.B) {
	run := func(b *testing.B, logging bool) {
		clock := sim.NewClock()
		s := xenstore.New(clock)
		s.LoggingEnabled = logging
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s.Write("/local/domain/1/k", "v")
		}
		b.ReportMetric(clock.Now().Seconds()/float64(b.N)*1e6, "virt-us/op")
	}
	b.Run("logging-on", func(b *testing.B) { run(b, true) })
	b.Run("logging-off", func(b *testing.B) { run(b, false) })
}

// BenchmarkAblationPoolDepth measures LightVM creation with different
// shell-pool depths: 0 forces inline prepares on every create.
func BenchmarkAblationPoolDepth(b *testing.B) {
	for _, depth := range []int{0, 1, 8, 64} {
		b.Run(fmt.Sprintf("depth-%d", depth), func(b *testing.B) {
			host, err := lightvm.NewHost(lightvm.Xeon4, 1)
			if err != nil {
				b.Fatal(err)
			}
			host.Env.Pool.SetTarget(depth)
			img := lightvm.Noop()
			if depth > 0 {
				if err := host.EnsureFlavor(img, lightvm.ModeLightVM); err != nil {
					b.Fatal(err)
				}
			}
			var createSum float64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if depth > 0 {
					if err := host.Replenish(); err != nil {
						b.Fatal(err)
					}
				}
				vm, err := host.CreateVM(lightvm.ModeLightVM, "bench", img)
				if err != nil {
					b.Fatal(err)
				}
				createSum += vm.CreateTime.Seconds()
				if err := host.DestroyVM(vm); err != nil {
					b.Fatal(err)
				}
			}
			// The split toolstack's point: create latency collapses
			// once a shell is waiting in the pool.
			b.ReportMetric(createSum/float64(b.N)*1e3, "create-virt-ms")
		})
	}
}

// BenchmarkAblationMemDedup measures per-guest memory with the §9
// page-sharing extension off and on (reported as MB/guest).
func BenchmarkAblationMemDedup(b *testing.B) {
	for _, dedup := range []bool{false, true} {
		name := "off"
		if dedup {
			name = "on"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var perGuestMB float64
			for i := 0; i < b.N; i++ {
				host, err := lightvm.NewHost(lightvm.Xeon4, 1)
				if err != nil {
					b.Fatal(err)
				}
				if dedup {
					host.EnableMemDedup()
				}
				base := host.MemoryUsedBytes()
				const guests = 50
				for g := 0; g < guests; g++ {
					if _, err := host.CreateVM(lightvm.ModeChaosNoXS, fmt.Sprintf("g%d", g), lightvm.Minipython()); err != nil {
						b.Fatal(err)
					}
				}
				perGuestMB = float64(host.MemoryUsedBytes()-base) / guests / (1 << 20)
			}
			b.ReportMetric(perGuestMB, "MB/guest")
		})
	}
}

// BenchmarkXenStoreTxn measures transaction throughput on the real
// store implementation.
func BenchmarkXenStoreTxn(b *testing.B) {
	clock := sim.NewClock()
	s := xenstore.New(clock)
	s.LoggingEnabled = false
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := s.Txn(4, func(tx *xenstore.Tx) error {
			tx.Write("/local/domain/9/device/vif/0/state", "4")
			tx.Write("/local/domain/9/name", "bench")
			_, _ = tx.ReadAt("/local/domain/9/name", "")
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMinipy measures the interpreter on the paper's §7.4 job.
func BenchmarkMinipy(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lightvm.RunPython(lightvm.ApproxEProgram); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTinyxBuild measures a full Tinyx image build.
func BenchmarkTinyxBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := lightvm.BuildTinyx("nginx", "xen"); err != nil {
			b.Fatal(err)
		}
	}
}
