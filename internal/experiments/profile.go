package experiments

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"lightvm/internal/profiling"
)

// Per-figure profiling. With Options.Profile set, RunMany wraps every
// generator in the run in a pprof capture: a CPU profile and/or a heap
// (allocs) profile written to <Dir>/<id>.cpu.pb.gz / <id>.heap.pb.gz,
// plus a symbol-bucket summary (top subsystems by flat CPU time and
// heap bytes) attached to the figure's Result.Profile.
//
// A profiled run is always sequential (RunMany forces Parallel = 1).
// CPU profiling is process-global — the runtime supports one profile
// at a time and it samples every thread — and heap attribution
// subtracts a pre-run alloc_space baseline from the post-run profile,
// which is exact only when nothing else allocates meanwhile. To
// profile one figure, run just that figure.

// ProfileOptions selects per-figure pprof capture.
type ProfileOptions struct {
	// CPU captures a CPU profile per figure.
	CPU bool
	// Heap captures a heap (allocs) profile per figure.
	Heap bool
	// Dir is where <id>.cpu.pb.gz / <id>.heap.pb.gz land ("." when
	// empty); it is created if missing.
	Dir string
}

func (p ProfileOptions) enabled() bool { return p.CPU || p.Heap }

func (p ProfileOptions) dir() string {
	if p.Dir == "" {
		return "."
	}
	return p.Dir
}

// topSubsystems is the summary depth: the report keeps the top-5
// subsystems per dimension.
const topSubsystems = 5

// topAllocSites is the function-level depth of the heap report: enough
// entries to see past mallocgc wrappers to the actual hot sites.
const topAllocSites = 10

// ProfileSummary is the per-figure attribution report: where the
// captured profiles landed and which subsystems dominate them.
type ProfileSummary struct {
	// CPUFile / HeapFile are the written profile paths ("" if that
	// mode was off).
	CPUFile  string `json:"cpu_file,omitempty"`
	HeapFile string `json:"heap_file,omitempty"`
	// CPU ranks subsystems by flat CPU time over the samples labeled
	// with this figure; Heap by flat allocated bytes over the pre/post
	// alloc_space delta. Top-5 each, deterministic order.
	CPU  []profiling.Cost `json:"cpu,omitempty"`
	Heap []profiling.Cost `json:"heap,omitempty"`
	// HeapTopFuncs drills the heap delta down to the top flat
	// allocation sites (function-level), each tagged with the subsystem
	// it bills to — so "who allocates" is answerable from the JSON
	// report without opening the .pb.gz in pprof.
	HeapTopFuncs []profiling.FuncCost `json:"heap_top_funcs,omitempty"`
	// CPUTotalNanos is the figure's own (labeled) sampled CPU time;
	// CPUForeignNanos is what else landed in the raw profile: runtime
	// work that carries no figure label, such as GC background workers.
	CPUTotalNanos   int64 `json:"cpu_total_nanos,omitempty"`
	CPUForeignNanos int64 `json:"cpu_foreign_nanos,omitempty"`
	// HeapDeltaBytes is the (sampled) alloc_space growth across the
	// run.
	HeapDeltaBytes int64 `json:"heap_delta_bytes,omitempty"`
}

// String renders the summary as the one-line attribution note the CLI
// prints under each profiled figure.
func (ps *ProfileSummary) String() string {
	if ps == nil {
		return ""
	}
	var b bytes.Buffer
	line := func(kind string, costs []profiling.Cost, file string) {
		if file == "" {
			return
		}
		fmt.Fprintf(&b, "profile %s:", kind)
		if len(costs) == 0 {
			b.WriteString(" (no samples)")
		}
		for i, c := range costs {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, " %.1f%% %s", c.Percent, c.Subsystem)
		}
		fmt.Fprintf(&b, " (%s)\n", file)
	}
	line("cpu", ps.CPU, ps.CPUFile)
	line("heap", ps.Heap, ps.HeapFile)
	if len(ps.HeapTopFuncs) > 0 {
		b.WriteString("top alloc sites:")
		n := len(ps.HeapTopFuncs)
		if n > 3 {
			n = 3
		}
		for i, fc := range ps.HeapTopFuncs[:n] {
			if i > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, " %.1f%% %s", fc.Percent, fc.Function)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// runProfiled executes one figure, wrapping it in pprof capture when
// profiling is on. It is the single entry point RunMany uses for every
// job.
func runProfiled(id string, o Options) (Result, error) {
	if !o.Profile.enabled() {
		return Run(id, o)
	}
	return captureProfiles(id, o)
}

// captureProfiles is runProfiled's slow path: profiles are armed, the
// generator runs under a figure label, and the attribution summary is
// computed from the captured data. The run must be sequential (see
// RunMany).
func captureProfiles(id string, o Options) (Result, error) {
	dir := o.Profile.dir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return Result{}, fmt.Errorf("experiments: profile dir: %w", err)
	}
	sum := &ProfileSummary{}

	var preHeap map[string]int64
	if o.Profile.Heap {
		// Fold everything allocated so far into a baseline that the
		// post-run profile is diffed against (alloc_space is cumulative
		// for the whole process).
		runtime.GC()
		flat, err := heapFlat()
		if err != nil {
			return Result{}, err
		}
		preHeap = flat
	}

	var cpuFile *os.File
	if o.Profile.CPU {
		path := filepath.Join(dir, id+".cpu.pb.gz")
		f, err := os.Create(path)
		if err != nil {
			return Result{}, fmt.Errorf("experiments: profile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			os.Remove(path)
			return Result{}, fmt.Errorf("experiments: start cpu profile for %s (another profile in flight?): %w", id, err)
		}
		cpuFile = f
		sum.CPUFile = path
	}

	// The label rides on the figure's goroutine and everything it
	// spawns (nested series pools included), so the CPU report can be
	// cut to exactly this figure's samples.
	var res Result
	var runErr error
	start := time.Now()
	pprof.Do(context.Background(), pprof.Labels("figure", id), func(context.Context) {
		res, runErr = Run(id, o)
	})
	wall := time.Since(start)

	if cpuFile != nil {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil && runErr == nil {
			runErr = fmt.Errorf("experiments: close cpu profile: %w", err)
		}
	}
	if runErr != nil {
		return Result{}, runErr
	}

	if o.Profile.CPU {
		prof, err := profiling.ParseFile(sum.CPUFile)
		if err != nil {
			return Result{}, fmt.Errorf("experiments: parse %s: %w", sum.CPUFile, err)
		}
		ci := prof.SampleType("cpu")
		mine := func(s *profiling.Sample) bool { return s.Label("figure") == id }
		sum.CPUTotalNanos = prof.Total(ci, mine)
		sum.CPUForeignNanos = prof.Total(ci, nil) - sum.CPUTotalNanos
		sum.CPU = profiling.TopSubsystems(profiling.SubsystemTotals(prof.Flat(ci, mine)), topSubsystems)
	}

	if o.Profile.Heap {
		runtime.GC() // flush the run's allocations into the profile
		path := filepath.Join(dir, id+".heap.pb.gz")
		f, err := os.Create(path)
		if err != nil {
			return Result{}, fmt.Errorf("experiments: profile: %w", err)
		}
		werr := pprof.Lookup("allocs").WriteTo(f, 0)
		cerr := f.Close()
		if werr != nil {
			return Result{}, fmt.Errorf("experiments: write heap profile: %w", werr)
		}
		if cerr != nil {
			return Result{}, fmt.Errorf("experiments: write heap profile: %w", cerr)
		}
		sum.HeapFile = path
		prof, err := profiling.ParseFile(path)
		if err != nil {
			return Result{}, fmt.Errorf("experiments: parse %s: %w", path, err)
		}
		delta := profiling.DeltaFlat(prof.Flat(prof.SampleType("alloc_space"), nil), preHeap)
		for _, v := range delta {
			sum.HeapDeltaBytes += v
		}
		sum.Heap = profiling.TopSubsystems(profiling.SubsystemTotals(delta), topSubsystems)
		sum.HeapTopFuncs = profiling.TopFunctions(delta, topAllocSites)
	}

	res.Profile = sum
	res.Wall = wall
	return res, nil
}

// heapFlat snapshots the process's cumulative per-function alloc_space.
func heapFlat() (map[string]int64, error) {
	var buf bytes.Buffer
	if err := pprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		return nil, fmt.Errorf("experiments: snapshot heap profile: %w", err)
	}
	p, err := profiling.Parse(buf.Bytes())
	if err != nil {
		return nil, fmt.Errorf("experiments: parse heap snapshot: %w", err)
	}
	return p.Flat(p.SampleType("alloc_space"), nil), nil
}
