// Command lightvm-bench regenerates the paper's evaluation figures.
//
// Usage:
//
//	lightvm-bench -exp fig09            # one figure at paper scale
//	lightvm-bench -exp all -scale 0.1   # everything, 10% guest counts
//	lightvm-bench -exp all -parallel 1  # force a sequential replay
//	lightvm-bench -exp all -json        # also write BENCH_<date>.json
//	lightvm-bench -exp all -json -out results/bench.json
//	lightvm-bench -exp fig12a -profile=cpu,heap -profile-dir profiles
//	lightvm-bench -exp ext-churn -scale 0.1 -fsck  # consistency gate
//	lightvm-bench -list
//
// Each figure prints as a fixed-width table with the paper's series as
// columns, followed by calibration notes. Figure numbers follow the
// paper (fig01..fig18 plus tbl-guests). Figures run on a bounded
// worker pool (-parallel; 0 = one worker per core) and print in a
// fixed order, byte-identical to a sequential run.
//
// -profile captures a pprof CPU and/or heap profile per figure
// (<id>.cpu.pb.gz / <id>.heap.pb.gz under -profile-dir; open them with
// `go tool pprof`) and adds a per-figure subsystem attribution summary
// to the output and the -json report. Every figure in the run is
// profiled, and a profiled run is sequential whatever -parallel says
// (CPU profiling is process-global); pick the figures with -exp.
//
// Per-figure allocation counts (the -json "allocs" field) are recorded
// only on sequential runs; a parallel run omits them, so a report meant
// as a benchdiff baseline must be recorded with -parallel 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"lightvm"
)

// benchFigure is one figure's timing record in the -json report.
type benchFigure struct {
	ID         string                     `json:"id"`
	WallMS     float64                    `json:"wall_ms"`
	Allocs     uint64                     `json:"allocs,omitempty"`
	VirtualMS  float64                    `json:"virtual_ms"`
	Profile    *lightvm.ExperimentProfile `json:"profile,omitempty"`
	CrashSites []lightvm.CrashSiteStat    `json:"crash_sites,omitempty"`
	// Serving carries a traffic figure's latency tail and rejection
	// breakdown (ext-serve, ext-overload) for the benchdiff tail gate.
	Serving *lightvm.ServingSummary `json:"serving,omitempty"`
}

// benchFsck is the -fsck gate's summary in the -json report.
type benchFsck struct {
	Envs       int      `json:"envs"`
	Violations []string `json:"violations"`
}

// benchReport is the -json output schema.
type benchReport struct {
	Date        string        `json:"date"`
	Scale       float64       `json:"scale"`
	Seed        uint64        `json:"seed"`
	Parallel    int           `json:"parallel"`
	Shards      int           `json:"shards,omitempty"`
	TotalWallMS float64       `json:"total_wall_ms"`
	Figures     []benchFigure `json:"figures"`
	Fsck        *benchFsck    `json:"fsck,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// formatReasons renders a rejected-by-reason map in deterministic key
// order, or "" when empty.
func formatReasons(m map[string]int) string {
	if len(m) == 0 {
		return ""
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(" (")
	for i, k := range keys {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %d", k, m[k])
	}
	b.WriteString(")")
	return b.String()
}

// run is the testable CLI body: parse args, run figures, render. It
// returns the process exit code (0 ok, 1 runtime failure, 2 flag
// error).
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("lightvm-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	exp := fs.String("exp", "all", "experiment id (figNN, tbl-guests) or 'all'")
	scale := fs.Float64("scale", 1.0, "guest-count scale relative to the paper (1.0 = full)")
	seed := fs.Uint64("seed", 1, "workload seed")
	parallel := fs.Int("parallel", 0, "worker-pool size (0 = one per core, 1 = sequential)")
	shards := fs.Int("shards", 0, "engine worker count for sharded-cluster figures (0 = sweep 1/2/8 with in-run equality check)")
	list := fs.Bool("list", false, "list experiment ids and exit")
	plot := fs.Bool("plot", false, "render each figure as an ASCII chart too")
	jsonOut := fs.Bool("json", false, "write per-figure timings to BENCH_<date>.json (see -out)")
	out := fs.String("out", "", "path for the -json report (default BENCH_<date>.json in the current directory)")
	profile := fs.String("profile", "", "comma-separated pprof captures per figure: cpu, heap (forces a sequential run)")
	profileDir := fs.String("profile-dir", "profiles", "directory for <id>.cpu.pb.gz / <id>.heap.pb.gz files")
	fsck := fs.Bool("fsck", false, "audit every environment's cross-layer invariants after the run; any violation fails the command")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, id := range lightvm.Experiments() {
			fmt.Fprintln(stdout, id)
		}
		return 0
	}

	opts := lightvm.ExperimentOptions{
		Scale: *scale, Seed: *seed, Parallel: *parallel, Shards: *shards,
		ProfileDir: *profileDir,
	}
	if *profile != "" {
		for _, mode := range strings.Split(*profile, ",") {
			switch strings.TrimSpace(mode) {
			case "cpu":
				opts.ProfileCPU = true
			case "heap":
				opts.ProfileHeap = true
			case "":
			default:
				fmt.Fprintf(stderr, "lightvm-bench: unknown -profile mode %q (want cpu, heap)\n", mode)
				return 2
			}
		}
	}

	ids := []string{*exp}
	if *exp == "all" {
		ids = lightvm.Experiments()
	}
	if *fsck {
		lightvm.SetEnvTracking(true)
		defer lightvm.SetEnvTracking(false)
	}
	start := time.Now()
	results, err := lightvm.RunExperimentsOpts(ids, opts)
	if err != nil {
		fmt.Fprintf(stderr, "lightvm-bench: %v\n", err)
		return 1
	}
	total := time.Since(start)
	for _, res := range results {
		fmt.Fprintf(stdout, "%s", res.Output)
		if *plot && res.Plot != "" {
			fmt.Fprintln(stdout, res.Plot)
		}
		fmt.Fprintf(stdout, "paper: %s\n", res.Paper)
		if res.Profile != nil {
			fmt.Fprint(stdout, res.Profile.String())
		}
		if s := res.Serving; s != nil {
			fmt.Fprintf(stdout, "serving: p50 %.1fms p99 %.1fms p999 %.1fms, %d arrived, reject %.2f%%%s",
				s.P50MS, s.P99MS, s.P999MS, s.Arrived, s.RejectPct, formatReasons(s.RejectedByReason))
			if s.BrownoutMS > 0 || s.SheddingMS > 0 {
				fmt.Fprintf(stdout, ", brownout %.0fms shedding %.0fms", s.BrownoutMS, s.SheddingMS)
			}
			fmt.Fprintln(stdout)
		}
		if len(res.CrashSites) > 0 {
			var opp, inj uint64
			for _, st := range res.CrashSites {
				opp += st.Opportunities
				inj += st.Injected
			}
			fmt.Fprintf(stdout, "crash points: %d sites, %d injections / %d opportunities\n", len(res.CrashSites), inj, opp)
		}
		fmt.Fprintf(stdout, "(generated in %v wall time)\n\n", time.Duration(res.WallMS*1e6).Round(time.Millisecond))
	}
	fmt.Fprintf(stdout, "total: %d figure(s) in %v wall time\n", len(results), total.Round(time.Millisecond))

	var fsckRes *benchFsck
	if *fsck {
		envs, violations := lightvm.FsckTracked()
		fsckRes = &benchFsck{Envs: envs, Violations: make([]string, 0, len(violations))}
		for _, v := range violations {
			fsckRes.Violations = append(fsckRes.Violations, v.String())
		}
		fmt.Fprintf(stdout, "fsck: %d environment(s) audited, %d violation(s)\n", envs, len(violations))
	}

	if *jsonOut {
		report := benchReport{
			Date:        time.Now().Format("2006-01-02"),
			Scale:       *scale,
			Seed:        *seed,
			Parallel:    *parallel,
			Shards:      *shards,
			TotalWallMS: float64(total) / 1e6,
		}
		report.Fsck = fsckRes
		for _, res := range results {
			report.Figures = append(report.Figures, benchFigure{
				ID: res.ID, WallMS: res.WallMS, Allocs: res.Allocs,
				VirtualMS: res.VirtualMS, Profile: res.Profile,
				CrashSites: res.CrashSites, Serving: res.Serving,
			})
		}
		name := *out
		if name == "" {
			name = fmt.Sprintf("BENCH_%s.json", report.Date)
		}
		buf, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			fmt.Fprintf(stderr, "lightvm-bench: %v\n", err)
			return 1
		}
		if dir := filepath.Dir(name); dir != "." {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				fmt.Fprintf(stderr, "lightvm-bench: %v\n", err)
				return 1
			}
		}
		if err := os.WriteFile(name, append(buf, '\n'), 0o644); err != nil {
			fmt.Fprintf(stderr, "lightvm-bench: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %s\n", name)
	}
	if fsckRes != nil && len(fsckRes.Violations) > 0 {
		for _, v := range fsckRes.Violations {
			fmt.Fprintf(stderr, "lightvm-bench: fsck violation: %s\n", v)
		}
		return 1
	}
	return 0
}
