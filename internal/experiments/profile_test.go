package experiments

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"lightvm/internal/profiling"
)

// profileTestOptions runs fig12a (checkpoint/restore — a store-heavy
// figure) at a scale small enough for CI but busy enough to allocate
// megabytes, so heap attribution always has samples.
func profileTestOptions(dir string) Options {
	return Options{
		Scale: 0.05, Seed: 1, Samples: 8, Parallel: 1,
		Profile: ProfileOptions{CPU: true, Heap: true, Dir: dir},
	}
}

func TestProfileCaptureSequential(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 32 << 10
	defer func() { runtime.MemProfileRate = old }()

	dir := t.TempDir()
	res, err := RunMany([]string{"fig12a"}, profileTestOptions(dir))
	if err != nil {
		t.Fatalf("RunMany: %v", err)
	}
	sum := res[0].Profile
	if sum == nil {
		t.Fatal("profiled run returned no Profile summary")
	}

	// Both profile files must exist, be non-empty and decode as pprof.
	for _, path := range []string{sum.CPUFile, sum.HeapFile} {
		if filepath.Dir(path) != dir {
			t.Fatalf("profile %s written outside -profile-dir %s", path, dir)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatalf("profile file: %v", err)
		}
		if fi.Size() == 0 {
			t.Fatalf("profile %s is empty", path)
		}
		if _, err := profiling.ParseFile(path); err != nil {
			t.Fatalf("profile %s does not parse: %v", path, err)
		}
	}

	// Heap attribution: fig12a allocates megabytes inside the
	// simulator, so the delta must be populated and dominated by real
	// packages from this module.
	if sum.HeapDeltaBytes <= 0 {
		t.Fatalf("heap delta = %d", sum.HeapDeltaBytes)
	}
	if len(sum.Heap) == 0 {
		t.Fatal("heap summary empty")
	}
	internals := 0
	for i, c := range sum.Heap {
		if c.Value <= 0 || c.Percent <= 0 || c.Percent > 100 {
			t.Fatalf("heap bucket %d malformed: %+v", i, c)
		}
		if i > 0 && c.Value > sum.Heap[i-1].Value {
			t.Fatalf("heap buckets unsorted: %+v", sum.Heap)
		}
		if strings.HasPrefix(c.Subsystem, "internal/") || c.Subsystem == "lightvm" {
			internals++
		}
	}
	if internals == 0 {
		t.Fatalf("no simulator package in heap top-5: %+v", sum.Heap)
	}

	// CPU attribution is sampling-based (100 Hz): at this scale the
	// figure may be too quick to catch, so only validate shape when
	// samples landed.
	if sum.CPUTotalNanos > 0 && len(sum.CPU) == 0 {
		t.Fatalf("labeled cpu time %dns but no cpu buckets", sum.CPUTotalNanos)
	}
	for _, c := range sum.CPU {
		if got := c.Subsystem; got == "" {
			t.Fatalf("cpu bucket with empty subsystem: %+v", sum.CPU)
		}
	}
}

// TestProfileOutputUnchanged pins the acceptance requirement that
// profiling is observation-only: the rendered figure is byte-identical
// with and without capture.
func TestProfileOutputUnchanged(t *testing.T) {
	base := Options{Scale: 0.05, Seed: 1, Samples: 8, Parallel: 1}
	plain, err := RunMany([]string{"fig12a"}, base)
	if err != nil {
		t.Fatal(err)
	}
	if plain[0].Profile != nil {
		t.Fatal("unprofiled run carries a Profile summary")
	}
	profiled, err := RunMany([]string{"fig12a"}, profileTestOptions(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := profiled[0].Table.String(), plain[0].Table.String(); got != want {
		t.Fatalf("profiling changed figure output:\n--- profiled ---\n%s\n--- plain ---\n%s", got, want)
	}
	if profiled[0].VirtualMS != plain[0].VirtualMS {
		t.Fatalf("profiling moved virtual time: %v != %v", profiled[0].VirtualMS, plain[0].VirtualMS)
	}
}

// TestProfileRunsSequential pins the profiling contract: asking for a
// parallel profiled run still profiles every figure, runs them one at
// a time (only sequential runs record Allocs) and leaves every table
// byte-identical to an unprofiled sequential run.
func TestProfileRunsSequential(t *testing.T) {
	ids := []string{"fig01", "fig02", "fig12a", "fig15"}
	dir := t.TempDir()
	o := Options{
		Scale: 0.05, Seed: 1, Samples: 8, Parallel: 4,
		Profile: ProfileOptions{CPU: true, Heap: true, Dir: dir},
	}
	prof, err := RunMany(ids, o)
	if err != nil {
		t.Fatalf("profiled run: %v", err)
	}
	seq, err := RunMany(ids, Options{Scale: 0.05, Seed: 1, Samples: 8, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range ids {
		if prof[i].ID != seq[i].ID {
			t.Fatalf("result order diverged: %s != %s", prof[i].ID, seq[i].ID)
		}
		if got, want := prof[i].Table.String(), seq[i].Table.String(); got != want {
			t.Fatalf("%s: profiled output diverged:\n%s\n---\n%s", id, got, want)
		}
		if prof[i].Profile == nil {
			t.Fatalf("%s: no Profile summary", id)
		}
		if prof[i].Allocs == 0 {
			t.Fatalf("%s: Allocs = 0, want > 0 (a profiled run must be sequential)", id)
		}
		for _, ext := range []string{".cpu.pb.gz", ".heap.pb.gz"} {
			if _, err := os.Stat(filepath.Join(dir, id+ext)); err != nil {
				t.Fatalf("missing profile: %v", err)
			}
		}
	}
}

// TestProfileWants: a run is profiled exactly when a capture mode is
// selected; a directory alone selects nothing.
func TestProfileWants(t *testing.T) {
	cases := []struct {
		p    ProfileOptions
		want bool
	}{
		{ProfileOptions{}, false},
		{ProfileOptions{Dir: "profiles"}, false},
		{ProfileOptions{CPU: true}, true},
		{ProfileOptions{Heap: true}, true},
		{ProfileOptions{CPU: true, Heap: true}, true},
	}
	for i, c := range cases {
		if got := c.p.enabled(); got != c.want {
			t.Errorf("case %d: enabled() = %v, want %v (%+v)", i, got, c.want, c.p)
		}
	}
}

func TestProfileSummaryString(t *testing.T) {
	var nilSum *ProfileSummary
	if nilSum.String() != "" {
		t.Fatal("nil summary renders text")
	}
	sum := &ProfileSummary{
		CPUFile: "p/fig01.cpu.pb.gz",
		CPU: []profiling.Cost{
			{Subsystem: "internal/xenstore", Value: 100, Percent: 62.5},
			{Subsystem: "runtime", Value: 60, Percent: 37.5},
		},
		HeapFile: "p/fig01.heap.pb.gz",
	}
	out := sum.String()
	for _, want := range []string{"profile cpu:", "62.5% internal/xenstore", "37.5% runtime", "fig01.cpu.pb.gz", "profile heap: (no samples)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("summary %q missing %q", out, want)
		}
	}
}
