package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeReport(t *testing.T, dir, name, body string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

const oldReport = `{"date":"2026-08-06","scale":0.05,"seed":1,"parallel":0,
"figures":[{"id":"fig12a","wall_ms":100,"allocs":1000},{"id":"fig12b","wall_ms":50,"allocs":500}]}`

func TestDiffPassesWithinThresholds(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", oldReport)
	newP := writeReport(t, dir, "new.json", `{"date":"2026-08-08","scale":0.05,"seed":1,"parallel":0,
"figures":[{"id":"fig12a","wall_ms":120,"allocs":1050},{"id":"fig12b","wall_ms":40,"allocs":400}]}`)
	var out, errb bytes.Buffer
	if code := run([]string{"-max-wall", "60", "-max-alloc", "10", oldP, newP}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "fig12a") {
		t.Fatalf("missing fig12a in output:\n%s", out.String())
	}
}

func TestDiffFailsOnWallRegression(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", oldReport)
	newP := writeReport(t, dir, "new.json", `{"date":"2026-08-08","scale":0.05,"seed":1,"parallel":0,
"figures":[{"id":"fig12a","wall_ms":200,"allocs":1000},{"id":"fig12b","wall_ms":50,"allocs":500}]}`)
	var out, errb bytes.Buffer
	if code := run([]string{"-max-wall", "60", oldP, newP}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Fatalf("missing REGRESSED marker:\n%s", out.String())
	}
}

func TestDiffWallFloorExemptsTinyFigures(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", `{"date":"2026-08-06","scale":0.05,"seed":1,"parallel":0,
"figures":[{"id":"ext-clone","wall_ms":1.3,"allocs":4600}]}`)
	newP := writeReport(t, dir, "new.json", `{"date":"2026-08-08","scale":0.05,"seed":1,"parallel":0,
"figures":[{"id":"ext-clone","wall_ms":2.9,"allocs":4600}]}`)
	var out, errb bytes.Buffer
	// +123% wall, but both sides are under the 5ms floor: no gate.
	if code := run([]string{"-max-wall", "60", oldP, newP}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0 (sub-floor figure); stderr: %s", code, errb.String())
	}
	// With the floor lowered beneath the figure, the same diff trips.
	if code := run([]string{"-max-wall", "60", "-min-wall-ms", "1", oldP, newP}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1 once floor is below the figure", code)
	}
}

func TestDiffFailsOnAllocRegression(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", oldReport)
	newP := writeReport(t, dir, "new.json", `{"date":"2026-08-08","scale":0.05,"seed":1,"parallel":0,
"figures":[{"id":"fig12a","wall_ms":100,"allocs":2000},{"id":"fig12b","wall_ms":50,"allocs":500}]}`)
	var out, errb bytes.Buffer
	if code := run([]string{"-max-alloc", "10", oldP, newP}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
}

// TestDiffRejectsUnmeasuredAllocs: lightvm-bench omits allocs on
// parallel runs, so a shared figure without them on either side must be
// an input error rather than a silent 0-vs-0 pass.
func TestDiffRejectsUnmeasuredAllocs(t *testing.T) {
	dir := t.TempDir()
	measured := writeReport(t, dir, "measured.json", oldReport)
	parallel := writeReport(t, dir, "parallel.json", `{"date":"2026-08-08","scale":0.05,"seed":1,"parallel":0,
"figures":[{"id":"fig12a","wall_ms":100},{"id":"fig12b","wall_ms":50}]}`)
	for _, c := range []struct{ oldP, newP string }{
		{parallel, parallel},
		{measured, parallel},
		{parallel, measured},
	} {
		var out, errb bytes.Buffer
		if code := run([]string{c.oldP, c.newP}, &out, &errb); code != 2 {
			t.Fatalf("%s vs %s: exit %d, want 2; stderr: %s", c.oldP, c.newP, code, errb.String())
		}
		if msg := errb.String(); !strings.Contains(msg, "fig12a") || !strings.Contains(msg, "-parallel 1") {
			t.Fatalf("error does not name the figure and the fix: %q", msg)
		}
	}
}

func TestDiffRejectsMismatchedRuns(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", oldReport)
	newP := writeReport(t, dir, "new.json", `{"date":"2026-08-08","scale":0.5,"seed":1,"parallel":0,
"figures":[{"id":"fig12a","wall_ms":100,"allocs":1000}]}`)
	var out, errb bytes.Buffer
	if code := run([]string{oldP, newP}, &out, &errb); code != 2 {
		t.Fatalf("exit %d, want 2 (scale mismatch)", code)
	}
	if code := run([]string{"-force", oldP, newP}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0 under -force", code)
	}
}

const servingOld = `{"date":"2026-08-06","scale":0.05,"seed":1,"parallel":0,
"figures":[{"id":"ext-overload","wall_ms":100,"allocs":1000,
"serving":{"p99_ms":110,"p999_ms":300,"reject_pct":12}}]}`

func TestDiffPassesIdenticalServingBlocks(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", servingOld)
	newP := writeReport(t, dir, "new.json", `{"date":"2026-08-08","scale":0.05,"seed":1,"parallel":0,
"figures":[{"id":"ext-overload","wall_ms":105,"allocs":1000,
"serving":{"p99_ms":110,"p999_ms":300,"reject_pct":12}}]}`)
	var out, errb bytes.Buffer
	if code := run([]string{oldP, newP}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "p99") {
		t.Fatalf("tail columns absent for serving figure:\n%s", out.String())
	}
}

func TestDiffFailsOnTailRegression(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", servingOld)
	// p99 +36% against the default 15% tail gate; wall/allocs unchanged.
	newP := writeReport(t, dir, "new.json", `{"date":"2026-08-08","scale":0.05,"seed":1,"parallel":0,
"figures":[{"id":"ext-overload","wall_ms":100,"allocs":1000,
"serving":{"p99_ms":150,"p999_ms":300,"reject_pct":12}}]}`)
	var out, errb bytes.Buffer
	if code := run([]string{oldP, newP}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	if !strings.Contains(out.String(), "REGRESSED") {
		t.Fatalf("missing REGRESSED marker:\n%s", out.String())
	}
	// A raised -max-tail lets the same diff through.
	if code := run([]string{"-max-tail", "50", oldP, newP}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0 with -max-tail 50", code)
	}
}

func TestDiffFailsOnRejectRateJump(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", servingOld)
	// Reject rate +5pp against the default 2pp gate; tail unchanged.
	newP := writeReport(t, dir, "new.json", `{"date":"2026-08-08","scale":0.05,"seed":1,"parallel":0,
"figures":[{"id":"ext-overload","wall_ms":100,"allocs":1000,
"serving":{"p99_ms":110,"p999_ms":300,"reject_pct":17}}]}`)
	var out, errb bytes.Buffer
	if code := run([]string{oldP, newP}, &out, &errb); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errb.String())
	}
	if code := run([]string{"-max-reject", "10", oldP, newP}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0 with -max-reject 10", code)
	}
}

func TestDiffSkipsTailGateWhenBaselineLacksServing(t *testing.T) {
	dir := t.TempDir()
	// Old report predates the serving block: no tail gate, no failure.
	oldP := writeReport(t, dir, "old.json", `{"date":"2026-08-06","scale":0.05,"seed":1,"parallel":0,
"figures":[{"id":"ext-overload","wall_ms":100,"allocs":1000}]}`)
	newP := writeReport(t, dir, "new.json", `{"date":"2026-08-08","scale":0.05,"seed":1,"parallel":0,
"figures":[{"id":"ext-overload","wall_ms":100,"allocs":1000,
"serving":{"p99_ms":9999,"p999_ms":9999,"reject_pct":99}}]}`)
	var out, errb bytes.Buffer
	if code := run([]string{oldP, newP}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0 (no baseline serving block); stderr: %s", code, errb.String())
	}
}

func TestDiffReportsMissingFigures(t *testing.T) {
	dir := t.TempDir()
	oldP := writeReport(t, dir, "old.json", oldReport)
	newP := writeReport(t, dir, "new.json", `{"date":"2026-08-08","scale":0.05,"seed":1,"parallel":0,
"figures":[{"id":"fig12a","wall_ms":100,"allocs":1000},{"id":"fig16","wall_ms":10,"allocs":10}]}`)
	var out, errb bytes.Buffer
	if code := run([]string{oldP, newP}, &out, &errb); code != 0 {
		t.Fatalf("exit %d, want 0 (missing figures are informational)", code)
	}
	got := out.String()
	if !strings.Contains(got, "missing from new report") || !strings.Contains(got, "no baseline") {
		t.Fatalf("missing-figure lines absent:\n%s", got)
	}
}
