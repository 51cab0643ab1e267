package experiments

import (
	"runtime"
	"sync"
	"time"
)

// The parallel experiment engine. A full `-exp all` replay runs ~24
// independent figures, each of which builds its own sim.Clock, host
// and stores — an embarrassingly parallel workload that the original
// harness ran strictly sequentially. RunMany fans the figures out over
// a bounded worker pool and still emits results in input order, so the
// rendered output is byte-identical to a sequential run. The same pool
// primitive (runSeries) parallelizes *within* multi-timeline figures
// through Options.cells (cells.go), its only other caller: fig09's
// five toolstacks, ext-faults' (mode, rate) pairs, ext-serve's sampled
// hosts and so on each own an isolated timeline, so they run
// concurrently without perturbing a single virtual-time result.

// runSeries executes jobs 0..n-1 on up to o.workers() goroutines and
// returns the lowest-indexed error (deterministic error reporting).
// With Parallel == 1 (or a single job) it degrades to a plain loop so
// sequential runs stay exactly sequential.
func (o Options) runSeries(n int, job func(i int) error) error {
	w := o.workers()
	if w > n {
		w = n
	}
	if w <= 1 {
		for i := 0; i < n; i++ {
			if err := job(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	wg.Add(w)
	for g := 0; g < w; g++ {
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = job(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// RunMany executes the given experiments on a bounded worker pool
// (Options.Parallel workers; 0 = GOMAXPROCS) and returns their results
// in input order. Per-figure wall time is recorded on each Result.
// Allocation counts and profiles are recorded only on sequential runs:
// Go has no per-goroutine allocation counter, so the process-wide
// MemStats.Mallocs delta is attributable to a figure only when it runs
// alone, and CPU profiling is process-global. A profiled run is
// therefore forced sequential, and a parallel run reports Allocs == 0.
func RunMany(ids []string, o Options) ([]Result, error) {
	o = o.normalize()
	if o.Profile.enabled() {
		o.Parallel = 1
	}
	sequential := o.workers() == 1
	out := make([]Result, len(ids))
	err := o.runSeries(len(ids), func(i int) error {
		var m0 runtime.MemStats
		if sequential {
			runtime.ReadMemStats(&m0)
		}
		start := time.Now()
		res, err := runProfiled(ids[i], o)
		if err != nil {
			return err
		}
		if res.Wall == 0 {
			// Profiled figures time themselves (captureProfiles), so
			// profile writing and parsing don't count as figure time.
			res.Wall = time.Since(start)
		}
		if sequential {
			var m1 runtime.MemStats
			runtime.ReadMemStats(&m1)
			res.Allocs = m1.Mallocs - m0.Mallocs
		}
		out[i] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
