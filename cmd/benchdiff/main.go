// Command benchdiff compares two BENCH_*.json reports produced by
// lightvm-bench -json and fails (exit 1) when any figure regressed
// beyond the allowed thresholds. It is the regression gate between a
// checked-in baseline report and a fresh run:
//
//	benchdiff -max-wall 60 -max-alloc 10 BENCH_old.json BENCH_new.json
//
// Wall-clock numbers jitter with machine load (CI runners especially),
// so the default wall threshold is deliberately generous, and figures
// whose wall time is below -min-wall-ms on both sides are exempt from
// the wall gate entirely — a 1ms figure can double from scheduler
// noise alone. Allocation counts are deterministic on sequential runs
// and get a tight threshold with no floor; lightvm-bench records them
// only on sequential runs, so a figure present in both reports without
// an allocation count on either side is an input error, not a pass.
// Exit codes: 0 comparison passed, 1 regression found, 2 usage or
// input error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

type figure struct {
	ID      string   `json:"id"`
	WallMS  float64  `json:"wall_ms"`
	Allocs  uint64   `json:"allocs"`
	Serving *serving `json:"serving,omitempty"`
}

// serving is the tail block lightvm-bench attaches to traffic figures
// (ext-serve, ext-overload). Unlike wall time these numbers are
// deterministic at fixed scale/seed, so the gate catches any model
// change that moves the serving tail or the rejection rate.
type serving struct {
	P99MS     float64 `json:"p99_ms"`
	P999MS    float64 `json:"p999_ms"`
	RejectPct float64 `json:"reject_pct"`
}

type report struct {
	Date     string   `json:"date"`
	Scale    float64  `json:"scale"`
	Seed     uint64   `json:"seed"`
	Parallel int      `json:"parallel"`
	Shards   int      `json:"shards,omitempty"`
	Figures  []figure `json:"figures"`
}

func load(path string) (*report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Figures) == 0 {
		return nil, fmt.Errorf("%s: no figures", path)
	}
	return &r, nil
}

// pct is the relative change from old to new in percent; +10 means new
// is 10% worse (bigger).
func pct(oldV, newV float64) float64 {
	if oldV == 0 {
		return 0
	}
	return (newV - oldV) / oldV * 100
}

type diffLine struct {
	id        string
	wallPct   float64
	allocPct  float64
	wallBad   bool
	allocBad  bool
	onlyInOld bool
	onlyInNew bool

	// Serving-tail gate (only set when both reports carry a serving
	// block for the figure).
	hasTail    bool
	p99Pct     float64
	p999Pct    float64
	rejectDiff float64 // percentage-point change in reject rate
	tailBad    bool
}

// gates bundles the regression thresholds.
type gates struct {
	maxWallPct   float64
	maxAllocPct  float64
	minWallMS    float64
	maxTailPct   float64 // p99/p999 relative regression, percent
	maxRejectPts float64 // reject-rate increase, percentage points
}

// diff compares the two reports figure by figure against the given
// regression thresholds (percent). Figures under minWallMS on both
// sides never trip the wall gate: relative noise dominates absolute
// signal down there. Figures carrying a serving block in both reports
// additionally gate the latency tail (p99/p999) and the reject rate —
// those are deterministic at fixed scale/seed, so any movement is a
// model change, not noise.
func diff(oldR, newR *report, g gates) (lines []diffLine, regressed bool) {
	newByID := make(map[string]figure, len(newR.Figures))
	for _, f := range newR.Figures {
		newByID[f.ID] = f
	}
	seen := make(map[string]bool, len(oldR.Figures))
	for _, of := range oldR.Figures {
		seen[of.ID] = true
		nf, ok := newByID[of.ID]
		if !ok {
			lines = append(lines, diffLine{id: of.ID, onlyInOld: true})
			continue
		}
		l := diffLine{
			id:       of.ID,
			wallPct:  pct(of.WallMS, nf.WallMS),
			allocPct: pct(float64(of.Allocs), float64(nf.Allocs)),
		}
		l.wallBad = l.wallPct > g.maxWallPct && (of.WallMS >= g.minWallMS || nf.WallMS >= g.minWallMS)
		l.allocBad = l.allocPct > g.maxAllocPct
		if of.Serving != nil && nf.Serving != nil {
			l.hasTail = true
			l.p99Pct = pct(of.Serving.P99MS, nf.Serving.P99MS)
			l.p999Pct = pct(of.Serving.P999MS, nf.Serving.P999MS)
			l.rejectDiff = nf.Serving.RejectPct - of.Serving.RejectPct
			l.tailBad = l.p99Pct > g.maxTailPct || l.p999Pct > g.maxTailPct ||
				l.rejectDiff > g.maxRejectPts
		}
		if l.wallBad || l.allocBad || l.tailBad {
			regressed = true
		}
		lines = append(lines, l)
	}
	for _, nf := range newR.Figures {
		if !seen[nf.ID] {
			lines = append(lines, diffLine{id: nf.ID, onlyInNew: true})
		}
	}
	return lines, regressed
}

// checkAllocs rejects reports the alloc gate cannot read: every figure
// present in both must carry an allocation count on both sides. A
// parallel lightvm-bench run omits the counts, and comparing 0 against
// 0 would pass the gate without measuring anything.
func checkAllocs(oldR, newR *report, oldPath, newPath string) error {
	newByID := make(map[string]figure, len(newR.Figures))
	for _, f := range newR.Figures {
		newByID[f.ID] = f
	}
	for _, of := range oldR.Figures {
		nf, ok := newByID[of.ID]
		var path string
		switch {
		case !ok:
			continue
		case of.Allocs == 0:
			path = oldPath
		case nf.Allocs == 0:
			path = newPath
		default:
			continue
		}
		return fmt.Errorf("figure %s has no allocs in %s; record the report with lightvm-bench -parallel 1", of.ID, path)
	}
	return nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	maxWall := fs.Float64("max-wall", 60, "max allowed wall_ms regression per figure, percent")
	maxAlloc := fs.Float64("max-alloc", 10, "max allowed allocs regression per figure, percent")
	minWall := fs.Float64("min-wall-ms", 5, "figures faster than this on both sides skip the wall gate")
	maxTail := fs.Float64("max-tail", 15, "max allowed p99/p999 regression on serving figures, percent")
	maxReject := fs.Float64("max-reject", 2, "max allowed reject-rate increase on serving figures, percentage points")
	force := fs.Bool("force", false, "compare even when scale/seed/parallel differ")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(stderr, "usage: benchdiff [flags] OLD.json NEW.json")
		return 2
	}
	oldR, err := load(fs.Arg(0))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	newR, err := load(fs.Arg(1))
	if err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}
	if oldR.Scale != newR.Scale || oldR.Seed != newR.Seed || oldR.Parallel != newR.Parallel || oldR.Shards != newR.Shards {
		msg := fmt.Sprintf("benchdiff: reports not comparable: old scale=%g seed=%d parallel=%d shards=%d, new scale=%g seed=%d parallel=%d shards=%d",
			oldR.Scale, oldR.Seed, oldR.Parallel, oldR.Shards, newR.Scale, newR.Seed, newR.Parallel, newR.Shards)
		if !*force {
			fmt.Fprintln(stderr, msg, "(use -force to override)")
			return 2
		}
		fmt.Fprintln(stderr, msg, "(continuing under -force)")
	}
	if err := checkAllocs(oldR, newR, fs.Arg(0), fs.Arg(1)); err != nil {
		fmt.Fprintln(stderr, "benchdiff:", err)
		return 2
	}

	lines, regressed := diff(oldR, newR, gates{
		maxWallPct: *maxWall, maxAllocPct: *maxAlloc, minWallMS: *minWall,
		maxTailPct: *maxTail, maxRejectPts: *maxReject,
	})
	fmt.Fprintf(stdout, "%-12s %12s %12s %12s\n", "figure", "wall", "allocs", "tail")
	for _, l := range lines {
		switch {
		case l.onlyInOld:
			fmt.Fprintf(stdout, "%-12s %25s\n", l.id, "missing from new report")
		case l.onlyInNew:
			fmt.Fprintf(stdout, "%-12s %25s\n", l.id, "new figure (no baseline)")
		default:
			mark := func(bad bool) string {
				if bad {
					return " REGRESSED"
				}
				return ""
			}
			tail := ""
			if l.hasTail {
				tail = fmt.Sprintf(" p99 %+.1f%% p999 %+.1f%% reject %+.2fpp%s",
					l.p99Pct, l.p999Pct, l.rejectDiff, mark(l.tailBad))
			}
			fmt.Fprintf(stdout, "%-12s %+11.1f%%%s %+11.1f%%%s%s\n",
				l.id, l.wallPct, mark(l.wallBad), l.allocPct, mark(l.allocBad), tail)
		}
	}
	if regressed {
		fmt.Fprintf(stderr, "benchdiff: regression beyond -max-wall %g%% / -max-alloc %g%% / -max-tail %g%% / -max-reject %gpp\n",
			*maxWall, *maxAlloc, *maxTail, *maxReject)
		return 1
	}
	return 0
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}
