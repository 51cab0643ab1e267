// Command bench is the repository benchmark. It measures the
// simulator's host time and memory while it replays paper and
// extension figures, checks that every replayed figure's output is
// byte-identical to a recorded digest, and with -trace 1 attributes the
// CPU of one profiled iteration to the simulator's layers and times
// each layer's exported hot paths directly.
//
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh --workload serve-overload --seed 1 --seconds 25 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. README.md describes the
// workloads, the metrics and how to compare two commits.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"syscall"
	"time"
)

func main() { os.Exit(run(os.Args[1:])) }

// run is the command body; it returns the exit code (0 done, 1 the
// measurement failed, 2 bad flags).
func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to measure, or all")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 25, "how long each workload's timed loop runs")
	trace := fs.Int("trace", 0, "0 reports end-to-end metrics, 1 per-layer metrics")
	rec := fs.Bool("record", false, "re-record the output digests of the seeds in "+digestFile)
	mode := fs.String("child", "", "internal: run as a measuring child (probe, timed, replay)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "bench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	var err error
	switch {
	case *mode != "":
		err = runChild(*mode, *name, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1)
	case *rec:
		err = record()
	default:
		err = measureAll(*name, *seed, *seconds, *trace == 1)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}

// metricValue is one metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the line a run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func measureAll(name string, seed int64, seconds float64, trace bool) error {
	ws := workloads
	if name != "all" {
		w, err := findWorkload(name)
		if err != nil {
			return err
		}
		ws = []workload{*w}
	}
	for i := range ws {
		res, err := measure(&ws[i], seed, seconds, trace)
		if err != nil {
			return fmt.Errorf("%s: %w", ws[i].Name, err)
		}
		line, err := json.Marshal(res)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// setupProbes is how many extra children only set up and exit, half
// before the timed child and half after it, so the set-up median spans
// the run rather than one moment of it.
const setupProbes = 16

// childTimeout bounds any one child, so a hung simulator cannot hang
// the benchmark.
const childTimeout = 150 * time.Second

// measure runs one workload's children and assembles its result line.
// With trace the timed loop gets half the time, leaving room for the
// profiled iteration and the layer replays.
func measure(w *workload, seed int64, seconds float64, trace bool) (*result, error) {
	budget := seconds
	if trace {
		budget = seconds / 2
	}
	args := func(mode string) []string {
		return []string{"-child", mode, "-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
			"-seconds", strconv.FormatFloat(budget, 'g', -1, 64), "-trace", strconv.Itoa(btoi(trace))}
	}
	var setups []float64
	probe := func(n int) error {
		for i := 0; i < n; i++ {
			p, err := spawn(args("probe"), nil)
			if err != nil {
				return err
			}
			setups = append(setups, p.setup.Seconds())
		}
		return nil
	}
	if err := probe(setupProbes / 2); err != nil {
		return nil, err
	}
	var rep childReport
	timed, err := spawn(args("timed"), &rep)
	if err != nil {
		return nil, err
	}
	setups = append(setups, timed.setup.Seconds())
	if err := probe(setupProbes - setupProbes/2); err != nil {
		return nil, err
	}
	if len(rep.Iters) == 0 {
		return nil, errors.New("timed child reported no iterations")
	}

	var vals map[string]float64
	if trace {
		if rep.Traced == nil {
			return nil, errors.New("timed child ran no traced iteration")
		}
		var replayed map[string]float64
		if _, err := spawn([]string{"-child", "replay"}, &replayed); err != nil {
			return nil, err
		}
		vals = perLayerValues(&rep, replayed)
		printShares(w, &rep)
	} else {
		stats := endToEndStats(&rep, setups, timed.maxRSSMB)
		vals = make(map[string]float64, len(stats))
		for k, s := range stats {
			vals[k] = s.Median
		}
		printSummary(w, &rep, stats)
	}
	defs := endToEnd
	if trace {
		defs = perLayer()
	}
	return resultLine(&rep, defs, vals)
}

// column summarizes one per-iteration quantity.
func column(rep *childReport, f func(iteration) float64) summary {
	v := make([]float64, len(rep.Iters))
	for i, it := range rep.Iters {
		v[i] = f(it)
	}
	return summarize(v)
}

func wallRef(it iteration) float64 { return it.WallS / it.RefS }

// endToEndStats computes a plain run's metrics with their spread; the
// peak RSS is a single number per run.
func endToEndStats(rep *childReport, setups []float64, maxRSSMB float64) map[string]summary {
	return map[string]summary{
		"wall_ref":   column(rep, wallRef),
		"cpu_ref":    column(rep, func(it iteration) float64 { return it.CPUS / it.RefS }),
		"allocs_m":   column(rep, func(it iteration) float64 { return float64(it.Allocs) / 1e6 }),
		"alloc_mb":   column(rep, func(it iteration) float64 { return float64(it.Bytes) / (1 << 20) }),
		"max_rss_mb": summarize([]float64{maxRSSMB}),
		"setup_s":    summarize(setups),
	}
}

// perLayerValues computes a traced run's metrics: the profiled
// iteration's CPU shares and overhead, the timed loop's raw and runtime
// numbers, and the layer replays.
func perLayerValues(rep *childReport, replayed map[string]float64) map[string]float64 {
	vals := map[string]float64{
		"trace.overhead_frac": rep.Traced.WallRef/column(rep, wallRef).Median - 1,
		"runtime.gc_cpu_frac": rep.GCFrac,
		"bench.wall_s":        column(rep, func(it iteration) float64 { return it.WallS }).Median,
		"bench.cpu_s":         column(rep, func(it iteration) float64 { return it.CPUS }).Median,
		"bench.ref_s":         column(rep, func(it iteration) float64 { return it.RefS }).Median,
		"bench.warmup_s":      rep.WarmupS,
	}
	for b, share := range rep.Traced.Shares {
		if b == bucketBg {
			vals["runtime.bg_cpu_share"] = share
		} else {
			vals[b+".cpu_share"] = share
		}
	}
	for k, v := range replayed {
		vals[k] = v
	}
	return vals
}

// resultLine pairs every defined metric with its measured value; a
// metric measured but not defined, or defined but not measured, is an
// error.
func resultLine(rep *childReport, defs []metric, vals map[string]float64) (*result, error) {
	res := &result{
		Correct:   rep.Failed == 0,
		Attempted: rep.Attempted,
		Failed:    rep.Failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	if len(vals) != len(defs) {
		return nil, fmt.Errorf("measured %d metrics, defined %d", len(vals), len(defs))
	}
	return res, nil
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// spawned is what the parent learns about a finished child.
type spawned struct {
	setup    time.Duration // exec to the "ready" line
	maxRSSMB float64
}

// spawn runs this program as a child with args, times it from exec to
// its "ready" line, waits for it, and decodes its last line into out
// (nil to ignore it). The child dies with the parent.
func spawn(args []string, out any) (spawned, error) {
	var sp spawned
	self, err := os.Executable()
	if err != nil {
		return sp, err
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return sp, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return sp, err
	}
	lines := bufio.NewScanner(stdout)
	lines.Buffer(nil, 16<<20)
	var last []byte
	if lines.Scan() && lines.Text() == "ready" {
		sp.setup = time.Since(start)
		for lines.Scan() {
			last = append(last[:0], lines.Bytes()...)
		}
	}
	_, _ = io.Copy(io.Discard, stdout) // unblock the child if we stopped reading early
	if err := cmd.Wait(); err != nil {
		return sp, fmt.Errorf("child %v: %w", args[:2], err)
	}
	if sp.setup == 0 {
		return sp, fmt.Errorf("child %v never reported ready", args[:2])
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		sp.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if out != nil {
		if err := json.Unmarshal(last, out); err != nil {
			return sp, fmt.Errorf("child %v: bad report: %w", args[:2], err)
		}
	}
	return sp, nil
}

// printSummary prints a plain run's numbers with their spread, and each
// cell's own wall_ref, ahead of the result line.
func printSummary(w *workload, rep *childReport, stats map[string]summary) {
	fmt.Printf("workload %s, simulator seed %d: %d timed iterations, warm-up %.3fs\n",
		w.Name, rep.SimSeed, len(rep.Iters), rep.WarmupS)
	for _, m := range endToEnd {
		s := stats[m.Name]
		fmt.Printf("  %-11s %s (median [q1, q3]), spread %.2f%%\n", m.Name, s, 100*s.spread())
	}
	for i, c := range w.Cells {
		var v []float64
		for _, it := range rep.Iters {
			if i < len(it.CellsS) { // a failed iteration stops at the failing cell
				v = append(v, it.CellsS[i]/it.RefS)
			}
		}
		fmt.Printf("  cell %-20s wall_ref %s\n", c.key(), summarize(v))
	}
}

// printShares prints the traced iteration's CPU shares, largest first.
func printShares(w *workload, rep *childReport) {
	type share struct {
		name string
		pct  float64
	}
	var ss []share
	for b, p := range rep.Traced.Shares {
		ss = append(ss, share{b, p})
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].pct != ss[j].pct {
			return ss[i].pct > ss[j].pct
		}
		return ss[i].name < ss[j].name
	})
	fmt.Printf("workload %s, simulator seed %d: traced CPU shares:", w.Name, rep.SimSeed)
	for _, s := range ss {
		if s.pct > 0 {
			fmt.Printf(" %s %.1f%%", s.name, s.pct)
		}
	}
	fmt.Println()
}
