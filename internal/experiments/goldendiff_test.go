package experiments

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"lightvm/internal/faults"
)

// The golden-diff helper: when a figure moves off its committed
// golden, the failure names exactly which cells moved — figure,
// column, row (with its x value), got vs want — instead of dumping two
// JSON blobs to eyeball. diffGoldenDocs is pure so it can be tested on
// synthetic documents.

// diffGoldenDocs compares two rendered golden documents and returns
// one human-readable line per difference (empty = identical). Inputs
// are the JSON bytes renderGolden produces.
func diffGoldenDocs(got, want []byte) []string {
	var g, w goldenDoc
	if err := json.Unmarshal(got, &g); err != nil {
		return []string{fmt.Sprintf("got document does not parse: %v", err)}
	}
	if err := json.Unmarshal(want, &w); err != nil {
		return []string{fmt.Sprintf("want document does not parse: %v", err)}
	}
	var diffs []string
	add := func(format string, args ...interface{}) {
		diffs = append(diffs, fmt.Sprintf(format, args...))
	}
	if g.ID != w.ID {
		add("id: got %q, want %q", g.ID, w.ID)
	}
	if g.Paper != w.Paper {
		add("paper note changed:\n  got  %q\n  want %q", g.Paper, w.Paper)
	}
	if g.Title != w.Title {
		add("title: got %q, want %q", g.Title, w.Title)
	}
	if g.VirtualMS != w.VirtualMS {
		add("virtual_ms: got %v, want %v (Δ %+g)", g.VirtualMS, w.VirtualMS, g.VirtualMS-w.VirtualMS)
	}
	if !equalStrings(g.Columns, w.Columns) {
		add("columns: got %v, want %v", g.Columns, w.Columns)
	}
	if len(g.Rows) != len(w.Rows) {
		add("row count: got %d, want %d", len(g.Rows), len(w.Rows))
	}
	// Cell-level diff over the common shape, labeling each cell by
	// column name and the row's x value (first column).
	colName := func(c int) string {
		if c < len(w.Columns) {
			return w.Columns[c]
		}
		if c < len(g.Columns) {
			return g.Columns[c]
		}
		return fmt.Sprintf("col%d", c)
	}
	for r := 0; r < len(g.Rows) && r < len(w.Rows); r++ {
		gr, wr := g.Rows[r], w.Rows[r]
		if len(gr) != len(wr) {
			add("row %d: got %d cells, want %d", r, len(gr), len(wr))
		}
		for c := 0; c < len(gr) && c < len(wr); c++ {
			if gr[c] != wr[c] {
				x := ""
				if len(wr) > 0 && c != 0 {
					x = fmt.Sprintf(" (x=%g)", wr[0])
				}
				add("column %q row %d%s: got %g, want %g (Δ %+g)",
					colName(c), r, x, gr[c], wr[c], gr[c]-wr[c])
			}
		}
	}
	if !equalStrings(g.Notes, w.Notes) {
		add("notes: got %q, want %q", g.Notes, w.Notes)
	}
	if gs, ws := jsonString(g.Serving), jsonString(w.Serving); gs != ws {
		add("serving: got %s, want %s", gs, ws)
	}
	if gs, ws := jsonString(g.CrashSites), jsonString(w.CrashSites); gs != ws {
		add("crash_sites: got %s, want %s", gs, ws)
	}
	return diffs
}

// jsonString renders v compactly for a diff line (maps in key order).
func jsonString(v any) string {
	buf, err := json.Marshal(v)
	if err != nil {
		return fmt.Sprintf("<%v>", err)
	}
	return string(buf)
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// mustGoldenJSON renders a synthetic golden document for helper tests.
func mustGoldenJSON(t *testing.T, doc goldenDoc) []byte {
	t.Helper()
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

func TestDiffGoldenDocsIdentical(t *testing.T) {
	doc := goldenDoc{
		ID: "figX", Title: "t", Columns: []string{"n", "ms"},
		Rows: [][]float64{{1, 2.5}, {10, 3.5}}, VirtualMS: 7,
	}
	buf := mustGoldenJSON(t, doc)
	if diffs := diffGoldenDocs(buf, buf); len(diffs) != 0 {
		t.Fatalf("identical docs diffed: %v", diffs)
	}
}

func TestDiffGoldenDocsCellDiff(t *testing.T) {
	want := goldenDoc{
		ID: "figX", Title: "t", Columns: []string{"n", "save_ms", "restore_ms"},
		Rows: [][]float64{{10, 30, 20}, {40, 31, 21}},
	}
	got := want
	got.Rows = [][]float64{{10, 30, 20}, {40, 32.5, 21}}
	diffs := diffGoldenDocs(mustGoldenJSON(t, got), mustGoldenJSON(t, want))
	if len(diffs) != 1 {
		t.Fatalf("want exactly one diff, got %v", diffs)
	}
	// The line must name the column, the row, its x value and both
	// numbers — everything needed to locate the moved cell.
	for _, frag := range []string{`"save_ms"`, "row 1", "x=40", "got 32.5", "want 31", "+1.5"} {
		if !strings.Contains(diffs[0], frag) {
			t.Fatalf("diff line %q missing %q", diffs[0], frag)
		}
	}
}

func TestDiffGoldenDocsStructural(t *testing.T) {
	want := goldenDoc{
		ID: "figX", VirtualMS: 5, Columns: []string{"n", "a"},
		Rows: [][]float64{{1, 2}}, Notes: []string{"calibrated"},
	}
	got := goldenDoc{
		ID: "figY", VirtualMS: 6, Columns: []string{"n", "b"},
		Rows: [][]float64{{1, 2}, {2, 3}}, Notes: []string{"recalibrated"},
		Serving:    &ServingSummary{Arrived: 10, Served: 9, Rejected: 1},
		CrashSites: []faults.SiteStat{{Site: "chaos.create.devices", Kind: "toolstack-crash", Opportunities: 3, Injected: 1}},
	}
	diffs := diffGoldenDocs(mustGoldenJSON(t, got), mustGoldenJSON(t, want))
	joined := strings.Join(diffs, "\n")
	for _, frag := range []string{"id:", "virtual_ms:", "columns:", "row count:", "notes:", "serving:", "crash_sites:"} {
		if !strings.Contains(joined, frag) {
			t.Fatalf("structural diff missing %q:\n%s", frag, joined)
		}
	}
}

func TestDiffGoldenDocsBadJSON(t *testing.T) {
	good := mustGoldenJSON(t, goldenDoc{ID: "x"})
	if diffs := diffGoldenDocs([]byte("{nope"), good); len(diffs) != 1 || !strings.Contains(diffs[0], "does not parse") {
		t.Fatalf("bad got-doc: %v", diffs)
	}
	if diffs := diffGoldenDocs(good, []byte("{nope")); len(diffs) != 1 || !strings.Contains(diffs[0], "does not parse") {
		t.Fatalf("bad want-doc: %v", diffs)
	}
}
