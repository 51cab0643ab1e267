// Package lightvm is a complete, simulation-backed reproduction of
// "My VM is Lighter (and Safer) than your Container" (Manco et al.,
// SOSP 2017): the Xen control plane and its LightVM redesign (noxs,
// chaos, split toolstack, xendevd), the Tinyx build system, the
// unikernel guest fleet, container/process baselines, and a harness
// that regenerates every figure of the paper's evaluation.
//
// The control plane runs for real — a transactional XenStore with
// watches, the split-driver handshake, domain shells pooled by the
// chaos daemon, page-granular memory accounting — while time is
// virtual: a deterministic clock charged by the calibrated cost model
// in internal/costs. See DESIGN.md for the substitution rationale.
//
// Quick start:
//
//	host, _ := lightvm.NewHost(lightvm.Xeon4, 1)
//	host.EnsureFlavor(lightvm.Daytime(), lightvm.ModeLightVM)
//	vm, _ := host.CreateVM(lightvm.ModeLightVM, "web1", lightvm.Daytime())
//	fmt.Println(vm.CreateTime + vm.BootTime) // ≈ 4ms of virtual time
package lightvm

import (
	"fmt"

	"lightvm/internal/apps"
	"lightvm/internal/cluster"
	"lightvm/internal/core"
	"lightvm/internal/experiments"
	"lightvm/internal/faults"
	"lightvm/internal/guest"
	"lightvm/internal/metrics"
	"lightvm/internal/migrate"
	"lightvm/internal/minipy"
	"lightvm/internal/netstack"
	"lightvm/internal/profiling"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
	"lightvm/internal/tinyx"
	"lightvm/internal/tlsterm"
	"lightvm/internal/toolstack"
	"lightvm/internal/trace"
)

// Core types, re-exported for library users.
type (
	// Host is one simulated machine with its hypervisor, toolstacks,
	// Dom0 bridge, container engine and process runner.
	Host = core.Host
	// Machine describes a testbed host (cores, Dom0 cores, memory).
	Machine = sched.Machine
	// Mode selects a toolstack configuration (Fig. 9 legend).
	Mode = toolstack.Mode
	// VM is a toolstack-managed guest.
	VM = toolstack.VM
	// Image is a bootable guest image.
	Image = guest.Image
	// Checkpoint is a saved guest (save/restore/migrate).
	Checkpoint = migrate.Checkpoint
	// Clock is the virtual time source shared by co-hosted machines.
	Clock = sim.Clock
	// TinyxResult is a finished Tinyx image build.
	TinyxResult = tinyx.BuildResult
	// TraceLog records control-plane operations (Host.EnableTrace).
	TraceLog = trace.Log
	// VMConfig is a parsed guest configuration file (xl or chaos
	// format).
	VMConfig = toolstack.VMConfig
	// Cluster manages a fleet of hosts on one timeline (§7.1's
	// mobile-edge deployment): balanced placement, handover
	// migrations, rebalancing.
	Cluster = cluster.Cluster
)

// NewCluster creates an empty host fleet on clock.
func NewCluster(clock *Clock) *Cluster { return cluster.New(clock) }

// UnmarshalCheckpoint parses a checkpoint serialized with
// Checkpoint.Marshal (ship checkpoints between processes or hosts).
var UnmarshalCheckpoint = migrate.UnmarshalCheckpoint

// ParseVMConfig parses a guest configuration file, auto-detecting the
// xl ('key = value') or chaos ('key value') format. Resolve the result
// to a bootable image with VMConfig.ResolveImage.
var ParseVMConfig = toolstack.ParseConfig

// Toolstack configurations.
const (
	// ModeXL is out-of-the-box Xen (xl/libxl + XenStore + hotplug
	// scripts).
	ModeXL = toolstack.ModeXL
	// ModeChaosXS is the lean chaos toolstack over the XenStore.
	ModeChaosXS = toolstack.ModeChaosXS
	// ModeChaosSplit adds the split toolstack's pre-created shells.
	ModeChaosSplit = toolstack.ModeChaosSplit
	// ModeChaosNoXS replaces the XenStore with noxs.
	ModeChaosNoXS = toolstack.ModeChaosNoXS
	// ModeLightVM is the full system: chaos + noxs + split toolstack.
	ModeLightVM = toolstack.ModeLightVM
)

// The paper's testbed machines.
var (
	// Xeon4 is the 4-core Intel Xeon E5-1630 v3 (Figs. 4, 5, 9, 14, 15).
	Xeon4 = sched.Xeon4
	// Xeon4Ckpt is the same box with 2 Dom0 cores (Figs. 12, 13).
	Xeon4Ckpt = sched.Xeon4Ckpt
	// Amd64 is the 64-core AMD Opteron host (Fig. 10, 8000 guests).
	Amd64 = sched.Amd64
	// Xeon14 is the 14-core Xeon E5-2690 v4 (§7 use cases).
	Xeon14 = sched.Xeon14
)

// NewHost builds a simulated machine; seed pins all randomized
// behaviour so runs are reproducible.
func NewHost(m Machine, seed uint64) (*Host, error) { return core.NewHost(m, seed) }

// NewClock creates a shared virtual clock for multi-host setups.
func NewClock() *Clock { return sim.NewClock() }

// NewHostOn builds a machine on an existing clock (needed for
// migration between hosts).
func NewHostOn(clock *Clock, m Machine, seed uint64) (*Host, error) {
	return core.NewHostOn(clock, m, seed)
}

// Guest image catalog (§3, §6, §7 of the paper).
var (
	// Noop is the 2.3 ms-floor unikernel with no devices.
	Noop = guest.Noop
	// Daytime is the 480 KB / 3.6 MB time-of-day unikernel.
	Daytime = guest.Daytime
	// Minipython is the MicroPython unikernel (compute service).
	Minipython = guest.Minipython
	// ClickOSFirewall is the §7.1 personal-firewall VM.
	ClickOSFirewall = guest.ClickOSFirewall
	// TLSUnikernel is the axtls/lwip termination proxy.
	TLSUnikernel = guest.TLSUnikernel
	// TinyxNoop is the 9.5 MB Tinyx Linux VM.
	TinyxNoop = guest.TinyxNoop
	// TinyxMicropython is Tinyx with the interpreter installed.
	TinyxMicropython = guest.TinyxMicropython
	// TinyxTLS is the Tinyx TLS terminator.
	TinyxTLS = guest.TinyxTLS
	// DebianMinimal is the 1.1 GB reference VM.
	DebianMinimal = guest.DebianMinimal
	// ImageByName resolves a catalog image by name.
	ImageByName = guest.ByName
)

// Experiments lists the figure/table generators available to
// RunExperimentsOpts (fig01..fig18, tbl-guests).
func Experiments() []string { return experiments.IDs() }

// ExperimentResult is one regenerated figure.
type ExperimentResult struct {
	// ID is the paper figure identifier (e.g. "fig09").
	ID string
	// Paper summarizes what the paper reports for this figure.
	Paper string
	// Output is the rendered data table.
	Output string
	// Plot is an ASCII rendering of the same data (log-y), for
	// terminal consumption.
	Plot string
	// WallMS is the real time the generator took, in milliseconds
	// (set by RunExperimentsOpts).
	WallMS float64
	// VirtualMS is the figure's simulated makespan in milliseconds
	// (0 = not instrumented by the generator).
	VirtualMS float64
	// Allocs is the generator's heap-allocation count, recorded only
	// on sequential runs (Parallel == 1, or any profiled run); 0 on
	// parallel runs, where Go's process-wide allocation counter cannot
	// be attributed to one figure.
	Allocs uint64
	// Profile is the per-figure pprof attribution report; nil unless
	// the run requested profiling (see ExperimentOptions).
	Profile *ExperimentProfile
	// CrashSites tallies, per labeled toolstack crash point, how often
	// the generator reached it and how often a crash was injected
	// there. Nil unless the figure arms toolstack-crash faults
	// (currently ext-churn).
	CrashSites []CrashSiteStat
	// Serving aggregates a traffic-serving figure's latency tail and
	// rejection breakdown (ext-serve, ext-overload); nil otherwise.
	// lightvm-bench -json carries it so benchdiff can gate p99/p999
	// and reject-rate regressions.
	Serving *ServingSummary
}

// ServingSummary is a serving figure's aggregate traffic outcome:
// latency quantiles, rejections by reason, retry and brownout
// accounting.
type ServingSummary = experiments.ServingSummary

// CrashSiteStat is one labeled crash point's opportunity/injection
// counters.
type CrashSiteStat = faults.SiteStat

// SubsystemCost is one simulator subsystem's share of a profile
// dimension (flat CPU time or allocated heap bytes).
type SubsystemCost = profiling.Cost

// FunctionCost is one function's share of a figure's heap delta, with
// the subsystem it bills to attached.
type FunctionCost = profiling.FuncCost

// ExperimentProfile is the per-figure profiling report: where the raw
// pprof files were written (open them with `go tool pprof`) and the
// top-5 subsystems by flat CPU time and heap bytes. Its String method
// renders the one-line terminal summary.
type ExperimentProfile = experiments.ProfileSummary

func toExperimentResult(res experiments.Result) ExperimentResult {
	out := ExperimentResult{
		ID:         res.ID,
		Paper:      res.Paper,
		Output:     res.Table.String(),
		WallMS:     float64(res.Wall) / 1e6,
		VirtualMS:  res.VirtualMS,
		Allocs:     res.Allocs,
		CrashSites: res.CrashSites,
		Serving:    res.Serving,
		Profile:    res.Profile,
	}
	if tab, ok := res.Table.(*metrics.Table); ok {
		// Most of the paper's time figures are log-scale.
		out.Plot = tab.Plot(72, 18, true)
	}
	return out
}

// FsckViolation is one broken cross-layer invariant found by the
// consistency checker: a store node, hypervisor domain, memory
// charge, event channel, grant or pooled shell that no live guest
// accounts for.
type FsckViolation = toolstack.Violation

// Fsck audits a quiescent host's cross-layer invariants and returns
// every violation (empty = consistent). Run it after lifecycle
// operations have finished, not mid-operation.
func Fsck(h *Host) []FsckViolation { return toolstack.Fsck(h.Env) }

// SetEnvTracking switches global environment tracking on or off
// (clearing any tracked list). With tracking on, every environment
// built afterwards — including the ones experiment generators build
// internally — is registered for FsckTracked. Tracking pins
// environments in memory; leave it off outside consistency gates.
var SetEnvTracking = toolstack.SetEnvTracking

// FsckTracked audits every live tracked environment (see
// SetEnvTracking) and returns how many were checked plus all
// violations found.
var FsckTracked = toolstack.FsckTracked

// ExperimentOptions configures RunExperimentsOpts. The zero value of
// Scale/Seed falls back to full scale / seed 1.
type ExperimentOptions struct {
	// Scale multiplies the paper's guest counts (1.0 = full scale).
	Scale float64
	// Seed drives all randomized workload choices.
	Seed uint64
	// Parallel bounds the worker pool (0 = GOMAXPROCS, 1 = sequential).
	Parallel int
	// Shards pins the engine worker count for figures built on the
	// sharded cluster core (ext-cluster). 0 = the figure's default
	// sweep over {1, 2, 8} with an in-run byte-equality check; any
	// value yields an identical table.
	Shards int
	// ProfileCPU/ProfileHeap capture a pprof CPU/heap profile per
	// figure into ProfileDir ("." when empty) as <id>.cpu.pb.gz /
	// <id>.heap.pb.gz and attach a subsystem attribution summary to
	// each ExperimentResult.Profile. Every figure in the run is
	// profiled, and a profiled run is sequential whatever Parallel
	// says: CPU profiling is process-global, and heap deltas are exact
	// only when one figure runs at a time.
	ProfileCPU  bool
	ProfileHeap bool
	ProfileDir  string
}

// RunExperimentsOpts regenerates the given figures (all registered
// ones if ids is empty) on a bounded worker pool, optionally with
// per-figure pprof profiling. Results come back in input order and are
// byte-identical regardless of parallelism — every figure (and every
// series within a figure) owns its own virtual clock, host and RNG.
func RunExperimentsOpts(ids []string, o ExperimentOptions) ([]ExperimentResult, error) {
	if len(ids) == 0 {
		ids = experiments.IDs()
	}
	res, err := experiments.RunMany(ids, experiments.Options{
		Scale: o.Scale, Seed: o.Seed, Parallel: o.Parallel, Shards: o.Shards,
		Profile: experiments.ProfileOptions{
			CPU: o.ProfileCPU, Heap: o.ProfileHeap, Dir: o.ProfileDir,
		},
	})
	if err != nil {
		return nil, err
	}
	out := make([]ExperimentResult, len(res))
	for i, r := range res {
		out[i] = toExperimentResult(r)
	}
	return out, nil
}

// BuildTinyx runs the §3.2 build system: dependency discovery,
// overlay install over a debootstrap base, BusyBox underlay merge,
// and the tinyconfig kernel shrink loop. app is a package name from
// the synthetic Debian universe (e.g. "nginx", "micropython");
// platform is "xen" or "kvm".
func BuildTinyx(app, platform string) (*TinyxResult, error) {
	return tinyx.Build(tinyx.DebianUniverse(), tinyx.BuildConfig{App: app, Platform: platform})
}

// TinyxApps lists the application packages BuildTinyx accepts.
func TinyxApps() []string { return tinyx.DebianUniverse().Names() }

// Use-case building blocks (§7).

type (
	// Firewall is the ClickOS-style per-user packet filter (§7.1).
	Firewall = apps.Firewall
	// FirewallAction is a filter verdict (Allow/Deny).
	FirewallAction = apps.Action
	// TLSTerminator is the §7.3 termination proxy state machine.
	TLSTerminator = tlsterm.Terminator
	// NetStack selects a guest TCP/IP implementation.
	NetStack = netstack.Stack
)

// Firewall verdicts and network stacks.
const (
	Allow    = apps.Allow
	Deny     = apps.Deny
	LinuxTCP = netstack.LinuxTCP
	Lwip     = netstack.Lwip
)

// NewPersonalFirewall builds a per-subscriber firewall configuration.
var NewPersonalFirewall = apps.NewPersonalFirewall

// NewTLSTerminator creates a termination endpoint on a host's clock
// using the given guest network stack.
func NewTLSTerminator(h *Host, stack NetStack) *TLSTerminator {
	return tlsterm.New(h.Clock, stack)
}

// RunPython executes a program on the Minipython interpreter (the
// §7.4 compute-service payload engine) and returns its output. The
// interpreter runs an indentation-based Python subset: def with
// recursion, return, if/elif/else, while, for over lists, ranges and
// strings, break, continue, pass, assignment (also +=, -=, *=, /= and
// list[i] = x); int, float, bool, str, list and None values; the
// operators + - * / // % **, comparisons, and, or, not, in and not in
// (on lists and strings), and indexing. Its builtins are print, range
// and len. Programs run under a step budget.
func RunPython(program string) (string, error) {
	res, err := minipy.Run(program, 0)
	if err != nil {
		return "", fmt.Errorf("lightvm: %w", err)
	}
	return res.Output, nil
}

// ApproxEProgram is the paper's compute-service job: an approximation
// of e in Minipython.
const ApproxEProgram = minipy.ApproxEProgram
