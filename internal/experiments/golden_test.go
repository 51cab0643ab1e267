package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lightvm/internal/faults"
	"lightvm/internal/metrics"
)

// Golden-figure regression tests: the figures that ride on the store's
// checkpoint/clone machinery (fig12a/b), the CPU-utilization sweep
// (fig15) and the cloning extension (ext-clone) are rendered to a
// canonical JSON document and compared byte-for-byte against committed
// goldens. Any change to the simulator that moves a published curve —
// a re-costed operation, a reordered charge, a new store primitive —
// shows up here as a diff that must be regenerated deliberately
// (`go test ./internal/experiments -run TestGoldenFigures -update`)
// and explained in the commit that carries it.

var updateGolden = flag.Bool("update", false, "rewrite golden figure files")

// goldenOptions pins the deterministic configuration the goldens were
// generated with: the default seed, a small scale so the test stays
// fast, and a sequential pool (parallel runs render byte-identical
// tables, but sequential keeps the goldens' provenance trivial).
var goldenOptions = Options{Scale: 0.05, Seed: 1, Samples: 8, Parallel: 1}

// goldenFigures are the curves the COW-store work must not move
// unintentionally.
var goldenFigures = []string{
	"fig12a", "fig12b", "fig15", "ext-clone", "ext-cluster", "ext-serve",
	// Pinned by the overload work: the fault-plane figures prove the
	// three appended fault kinds did not shift any pre-existing
	// per-kind decision stream, and ext-overload pins the metastability
	// study itself.
	"ext-faults", "ext-gray", "ext-overload",
	// The guest-count sweeps nothing else pinned: memory (fig14,
	// ext-dedup), the firewall fleet (fig16a) and the ukvm monitor
	// (ext-ukvm) all run through the population sweep.
	"fig14", "fig16a", "ext-ukvm", "ext-dedup",
	// The multi-timeline figures outside the population sweep that
	// nothing else pinned: each runs its independent cells (crash
	// churn, per-mode throughput, padding points, arrival rates, the
	// compute-service pair) through the cell harness.
	"ext-churn", "ext-throughput", "fig02", "fig16b", "fig17", "fig18",
}

// goldenOverrides replaces goldenOptions for figures whose default
// golden configuration would be too slow: ext-cluster at scale 0.05
// sweeps three worker counts over 50k domains, so its golden pins one
// worker count (the table is identical at every count — that is what
// TestShardDeterminismAcrossWorkerCounts proves) and a smaller fleet.
var goldenOverrides = map[string]Options{
	"ext-cluster": {Scale: 0.02, Seed: 1, Samples: 8, Parallel: 1, Shards: 2},
}

func goldenOpts(id string) Options {
	if o, ok := goldenOverrides[id]; ok {
		return o
	}
	return goldenOptions
}

// goldenDoc is the canonical JSON schema for one figure: everything
// deterministic about a run (virtual time, the full table, and the
// serving summary and crash-site tally of the figures that report
// them), nothing wall-clock dependent.
type goldenDoc struct {
	ID         string            `json:"id"`
	Paper      string            `json:"paper"`
	VirtualMS  float64           `json:"virtual_ms"`
	Title      string            `json:"title"`
	Columns    []string          `json:"columns"`
	Rows       [][]float64       `json:"rows"`
	Notes      []string          `json:"notes"`
	Serving    *ServingSummary   `json:"serving,omitempty"`
	CrashSites []faults.SiteStat `json:"crash_sites,omitempty"`
}

// renderGolden runs one figure and encodes its deterministic content.
func renderGolden(t *testing.T, id string) []byte {
	t.Helper()
	return renderGoldenOpts(t, id, goldenOpts(id))
}

// renderGoldenOpts is renderGolden at an explicit configuration.
func renderGoldenOpts(t *testing.T, id string, opts Options) []byte {
	t.Helper()
	res, err := Run(id, opts)
	if err != nil {
		t.Fatalf("run %s: %v", id, err)
	}
	return encodeGolden(t, res)
}

// encodeGolden renders one Result as canonical golden JSON.
func encodeGolden(t *testing.T, res Result) []byte {
	t.Helper()
	tab, ok := res.Table.(*metrics.Table)
	if !ok {
		t.Fatalf("%s: result table is %T, not *metrics.Table", res.ID, res.Table)
	}
	doc := goldenDoc{
		ID:         res.ID,
		Paper:      res.Paper,
		VirtualMS:  res.VirtualMS,
		Title:      tab.Title,
		Columns:    tab.Columns,
		Rows:       tab.Rows,
		Notes:      tab.Notes,
		Serving:    res.Serving,
		CrashSites: res.CrashSites,
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatalf("%s: marshal: %v", res.ID, err)
	}
	return append(buf, '\n')
}

func goldenPath(id string) string {
	return filepath.Join("testdata", "golden", id+".json")
}

func TestGoldenFigures(t *testing.T) {
	for _, id := range goldenFigures {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			got := renderGolden(t, id)
			path := goldenPath(id)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden %s (run with -update to create): %v", path, err)
			}
			if !bytes.Equal(got, want) {
				// Report per-cell differences (figure, column, row, got
				// vs want) rather than two JSON blobs; see
				// goldendiff_test.go.
				diffs := diffGoldenDocs(got, want)
				if len(diffs) == 0 {
					diffs = []string{"(byte-level difference only — whitespace or key order)"}
				}
				t.Errorf("%s: output moved from committed golden %s\n  %s\n"+
					"(if this change is intentional, regenerate with "+
					"`go test ./internal/experiments -run TestGoldenFigures -update` and explain the diff in the commit)",
					id, path, strings.Join(diffs, "\n  "))
			}
		})
	}
}
