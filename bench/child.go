package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"syscall"
	"time"

	"lightvm"
	"lightvm/internal/profiling"
)

// The measuring happens in child processes, one workload per process,
// so every workload starts from a fresh heap, GC state and RSS. A child
// prints "ready" once its set-up is done and one JSON line when it has
// finished; the parent times the first and decodes the second.

// iteration is one timed replay of a workload's cells.
type iteration struct {
	WallS  float64   `json:"wall_s"`
	CPUS   float64   `json:"cpu_s"`  // process user+sys CPU
	RefS   float64   `json:"ref_s"`  // mean of the kernel runs just before and after
	Allocs uint64    `json:"allocs"` // heap objects allocated
	Bytes  uint64    `json:"bytes"`  // heap bytes allocated
	CellsS []float64 `json:"cells_s"`
	gcCPU  float64
	allCPU float64
}

// traced is the outcome of the one profiled iteration.
type traced struct {
	WallRef float64            `json:"wall_ref"`
	Shares  map[string]float64 `json:"shares"`
}

// childReport is the timed child's final line.
type childReport struct {
	SimSeed   uint64      `json:"sim_seed"`
	Iters     []iteration `json:"iters"`
	WarmupS   float64     `json:"warmup_s"`
	GCFrac    float64     `json:"gc_frac"`
	Attempted int         `json:"attempted"`
	Failed    int         `json:"failed"`
	Traced    *traced     `json:"traced,omitempty"`
}

// child is a constructed workload: everything built before "ready".
type child struct {
	w      *workload
	seed   uint64
	want   map[string]string
	kernel *refKernel
}

func newChild(name string, seed int64) (*child, error) {
	w, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	digests, err := loadDigests()
	if err != nil {
		return nil, err
	}
	s := digests.simSeed(seed)
	return &child{w: w, seed: s, want: digests[s], kernel: newRefKernel()}, nil
}

func ready() { fmt.Println("ready") }

// runChild serves one of the parent's child modes.
func runChild(mode, name string, seed int64, budget time.Duration, trace bool) error {
	if mode == "replay" {
		ready()
		out, err := runReplays(1)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(out)
	}
	c, err := newChild(name, seed)
	if err != nil {
		return err
	}
	ready()
	switch mode {
	case "probe":
		return nil
	case "timed":
		rep, err := c.timed(budget, trace)
		if err != nil {
			return err
		}
		return json.NewEncoder(os.Stdout).Encode(rep)
	}
	return fmt.Errorf("unknown child mode %q", mode)
}

// timed runs one warm-up iteration, then timed iterations for about
// budget (never starting one that the last iteration's length says
// would overrun it, and always at least one), then with trace one
// profiled iteration.
func (c *child) timed(budget time.Duration, trace bool) (*childReport, error) {
	rep := &childReport{SimSeed: c.seed}
	start := time.Now()
	runs, err := runCells(c.w.Cells, c.seed)
	rep.WarmupS = time.Since(start).Seconds()
	c.check(rep, runs, err)

	var gcCPU, allCPU float64
	loop := time.Now()
	for {
		it, runs, err := c.iterate()
		c.check(rep, runs, err)
		rep.Iters = append(rep.Iters, it)
		gcCPU += it.gcCPU
		allCPU += it.allCPU
		if elapsed := time.Since(loop); elapsed+time.Duration(it.WallS*float64(time.Second)) > budget {
			break
		}
	}
	if allCPU > 0 {
		rep.GCFrac = gcCPU / allCPU
	}
	if trace {
		tr, runs, err := c.traced()
		c.check(rep, runs, err)
		if tr == nil {
			return nil, err
		}
		rep.Traced = tr
	}
	return rep, nil
}

// check counts one attempted iteration and whether it failed: a
// generator error, an output that differs from its recorded digest, or
// (traced) a cross-layer invariant violation.
func (c *child) check(rep *childReport, runs []cellRun, err error) {
	rep.Attempted++
	if err == nil {
		err = checkDigests(runs, c.want)
	}
	if err != nil {
		rep.Failed++
		fmt.Fprintf(os.Stderr, "bench: %s (simulator seed %d): %v\n", c.w.Name, c.seed, err)
	}
}

// cpuClasses reads the runtime's GC and total CPU-time estimates.
func cpuClasses() (gc, total float64) {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

// processCPU is the process's user+sys CPU time in seconds.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// iterate replays the workload once between two reference-kernel runs.
// A forced GC first gives every iteration the same starting heap, so
// one iteration's garbage is not collected on the next one's clock.
func (c *child) iterate() (iteration, []cellRun, error) {
	runtime.GC()
	before := c.kernel.timed()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	gc0, all0 := cpuClasses()
	cpu0 := processCPU()
	start := time.Now()
	runs, err := runCells(c.w.Cells, c.seed)
	wall := time.Since(start).Seconds()
	cpu1 := processCPU()
	gc1, all1 := cpuClasses()
	runtime.ReadMemStats(&m1)
	after := c.kernel.timed()
	it := iteration{
		WallS: wall, CPUS: cpu1 - cpu0, RefS: (before + after) / 2,
		Allocs: m1.Mallocs - m0.Mallocs, Bytes: m1.TotalAlloc - m0.TotalAlloc,
		gcCPU: gc1 - gc0, allCPU: all1 - all0,
	}
	for _, r := range runs {
		it.CellsS = append(it.CellsS, r.WallS)
	}
	return it, runs, err
}

// traced replays the workload once under the CPU profiler with
// environment tracking on, audits every environment the iteration
// built, and attributes the profile to layers. It returns a nil traced
// only when the profile itself could not be taken.
func (c *child) traced() (*traced, []cellRun, error) {
	lightvm.SetEnvTracking(true)
	defer lightvm.SetEnvTracking(false)
	runtime.GC()
	before := c.kernel.timed()
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, nil, fmt.Errorf("cpu profile: %w", err)
	}
	start := time.Now()
	runs, err := runCells(c.w.Cells, c.seed)
	wall := time.Since(start).Seconds()
	pprof.StopCPUProfile()
	after := c.kernel.timed()
	if err == nil {
		err = fsckTracked()
	}
	prof, perr := profiling.Parse(buf.Bytes())
	if perr != nil {
		return nil, runs, perr
	}
	return &traced{WallRef: wall / ((before + after) / 2), Shares: layerShares(prof)}, runs, err
}
