package main

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"lightvm/internal/profiling"
)

func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	for _, tc := range []struct {
		in        []float64
		q1, m, q3 float64
	}{
		// statistics.median and statistics.quantiles(x, n=4) by hand.
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{2, 4}, 1.5, 3, 4.5}, // extrapolated, as Python does
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize(tc.in)
		if s.Q1 != tc.q1 || s.Median != tc.m || s.Q3 != tc.q3 || s.N != len(tc.in) {
			t.Errorf("summarize(%v) = %+v, want q1 %g median %g q3 %g", tc.in, s, tc.q1, tc.m, tc.q3)
		}
	}
	if got := summarize([]float64{1, 2, 3, 4, 5}).spread(); got != 1 {
		t.Errorf("spread = %g, want (4.5-1.5)/3 = 1", got)
	}
	if s := summarize(nil); s != (summary{}) {
		t.Errorf("summarize(nil) = %+v, want zero", s)
	}
}

// TestRefKernelChecksumFixed pins the reference kernel: its inputs and
// work are frozen, so its checksum never moves.
func TestRefKernelChecksumFixed(t *testing.T) {
	k := newRefKernel()
	for i := 0; i < 2; i++ {
		if got := k.run(); got != 0xf8160841440da1b2 {
			t.Fatalf("run %d: reference kernel checksum %#x, want 0xf8160841440da1b2", i, got)
		}
	}
}

func TestSimSeedMapsOntoRecordedSeeds(t *testing.T) {
	table := digestTable{1: nil, 2: nil, 4: nil}
	for seed, want := range map[int64]uint64{1: 1, 2: 2, 3: 4, 4: 1, 5: 2, 7: 1, 0: 4, -1: 2} {
		if got := table.simSeed(seed); got != want {
			t.Errorf("simSeed(%d) = %d, want %d", seed, got, want)
		}
	}
}

func TestRecordedDigestsCoverEveryCell(t *testing.T) {
	table, err := loadDigests()
	if err != nil {
		t.Fatal(err)
	}
	if got := table.simSeed(1); got != 1 {
		t.Errorf("seed 1 runs simulator seed %d, want 1", got)
	}
	for s, cells := range table {
		for _, w := range workloads {
			for _, c := range w.Cells {
				if len(cells[c.key()]) != 64 {
					t.Errorf("seed %d: no digest for %s", s, c.key())
				}
			}
		}
	}
}

// tiny shrinks a workload's cells for tests.
func tiny(w workload) []cell {
	out := make([]cell, len(w.Cells))
	for i, c := range w.Cells {
		out[i] = cell{c.ID, c.Scale * 0.02}
	}
	return out
}

// tinyChild is a child over w's cells at test scale, with digests taken
// from one reference run.
func tinyChild(t *testing.T, w workload) *child {
	t.Helper()
	cells := tiny(w)
	runs, err := runCells(cells, 1)
	if err != nil {
		t.Fatalf("%s: %v", w.Name, err)
	}
	want := map[string]string{}
	for _, r := range runs {
		want[r.Key] = r.digest()
	}
	return &child{w: &workload{Name: w.Name, Cells: cells}, seed: 1, want: want, kernel: newRefKernel()}
}

func TestCorruptedDigestFailsIteration(t *testing.T) {
	c := tinyChild(t, workloads[2])
	runs, err := runCells(c.w.Cells, c.seed)
	rep := &childReport{}
	c.check(rep, runs, err)
	if rep.Attempted != 1 || rep.Failed != 0 {
		t.Fatalf("clean iteration: attempted %d failed %d, want 1 and 0", rep.Attempted, rep.Failed)
	}
	key := c.w.Cells[0]
	d := []byte(c.want[key.key()])
	d[0] ^= 1
	c.want[key.key()] = string(d)
	c.check(rep, runs, err)
	if rep.Attempted != 2 || rep.Failed != 1 {
		t.Fatalf("corrupted digest: attempted %d failed %d, want 2 and 1", rep.Attempted, rep.Failed)
	}
}

// protoBuf writes the protobuf subset a pprof profile needs.
type protoBuf struct{ bytes.Buffer }

func (b *protoBuf) uvarint(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	b.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}
func (b *protoBuf) varint(field int, v uint64) { b.uvarint(uint64(field << 3)); b.uvarint(v) }
func (b *protoBuf) msg(field int, body []byte) {
	b.uvarint(uint64(field<<3 | 2))
	b.uvarint(uint64(len(body)))
	b.Write(body)
}

// handProfile encodes a CPU profile whose samples have the given stacks
// (function names, leaf first) and nanosecond values.
func handProfile(stacks [][]string, values []int64) []byte {
	var p protoBuf
	strs := []string{"", "cpu", "nanoseconds"}
	ids := map[string]uint64{}
	for _, st := range stacks {
		for _, fn := range st {
			if ids[fn] == 0 {
				ids[fn] = uint64(len(ids) + 1)
				strs = append(strs, fn)
			}
		}
	}
	for _, s := range strs {
		p.msg(6, []byte(s))
	}
	var vt protoBuf
	vt.varint(1, 1)
	vt.varint(2, 2)
	p.msg(1, vt.Bytes())
	for _, id := range ids {
		var f, line, loc protoBuf
		f.varint(1, id)
		f.varint(2, id+2) // name's string index: after "", "cpu", "nanoseconds"
		p.msg(5, f.Bytes())
		line.varint(1, id)
		loc.varint(1, id) // one location per function, same id
		loc.msg(4, line.Bytes())
		p.msg(4, loc.Bytes())
	}
	for i, st := range stacks {
		var s, locs protoBuf
		for _, fn := range st {
			locs.uvarint(ids[fn])
		}
		s.msg(1, locs.Bytes())
		s.varint(2, uint64(values[i]))
		p.msg(2, s.Bytes())
	}
	return p.Bytes()
}

func TestLayerSharesChargeNearestRepoFrame(t *testing.T) {
	stacks := [][]string{
		// A runtime leaf under the store: the store pays.
		{"runtime.mallocgc", "lightvm/internal/xenstore.(*Store).pathID", "lightvm/internal/experiments.extOverload"},
		// A standard-library leaf under the toolstack.
		{"sort.Ints", "lightvm/internal/toolstack.(*Env).Scrub", "main.main"},
		// GC workers: no repository frame at all.
		{"runtime.scanobject", "runtime.gcBgMarkWorker"},
		// The nearest repository frame is an unlisted package.
		{"runtime.mallocgc", "lightvm/internal/guest.Daytime", "lightvm/internal/toolstack.(*Env).BootGuest"},
		// The nearest repository frame is the façade.
		{"runtime.memmove", "lightvm.RunExperimentsOpts", "main.runCells"},
		// A layer's own leaf.
		{"lightvm/internal/sim.(*Clock).AdvanceTo", "lightvm/internal/cluster.(*Sharded).RunChurn"},
	}
	values := []int64{30, 20, 25, 5, 10, 10}
	prof, err := profiling.Parse(handProfile(stacks, values))
	if err != nil {
		t.Fatal(err)
	}
	shares := layerShares(prof)
	want := map[string]float64{"xenstore": 30, "toolstack": 20, bucketBg: 25, bucketOther: 15, "sim": 10}
	var sum float64
	for b, v := range shares {
		sum += v
		if math.Abs(v-want[b]) > 1e-9 {
			t.Errorf("%s share = %g%%, want %g%%", b, v, want[b])
		}
	}
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("shares sum to %g, want 100", sum)
	}
	if len(shares) != len(layers)+2 {
		t.Errorf("%d buckets, want every layer plus other and bg", len(shares))
	}
}

// benchmarkJSON is the repository's BENCHMARK.json.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []metric `json:"end_to_end"`
	PerLayer  []metric `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// sortedNames lists names once each, failing on a bad or repeated one.
func sortedNames(t *testing.T, what string, names []string) []string {
	t.Helper()
	seen := map[string]bool{}
	for _, n := range names {
		if !metricName.MatchString(n) {
			t.Errorf("%s: illegal metric name %q", what, n)
		}
		if seen[n] {
			t.Errorf("%s: metric %q appears twice", what, n)
		}
		seen[n] = true
	}
	out := append([]string(nil), names...)
	sort.Strings(out)
	return out
}

func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b := loadBenchmarkJSON(t)
	for _, tc := range []struct {
		what       string
		code, json []metric
	}{
		{"end_to_end", endToEnd, b.EndToEnd},
		{"per_layer", perLayer(), b.PerLayer},
	} {
		if len(tc.code) != len(tc.json) {
			t.Errorf("%s: code defines %d metrics, BENCHMARK.json %d", tc.what, len(tc.code), len(tc.json))
			continue
		}
		for i := range tc.code {
			if tc.code[i] != tc.json[i] {
				t.Errorf("%s[%d]: code %+v, BENCHMARK.json %+v", tc.what, i, tc.code[i], tc.json[i])
			}
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name {
			t.Errorf("workload %d: code %q, BENCHMARK.json %q", i, w.Name, b.Workloads[i].Name)
		}
	}
}

func metricNames(defs []metric) []string {
	out := make([]string, len(defs))
	for i, d := range defs {
		out[i] = d.Name
	}
	return out
}

func keys(m map[string]float64) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestSmoke runs every workload at test scale through the timed child's
// full path (warm-up, one timed iteration, the traced iteration with
// fsck and attribution) and every layer replay at a small op count, and
// checks that the metrics they emit are exactly the defined ones.
func TestSmoke(t *testing.T) {
	replayed, err := runReplays(0.02)
	if err != nil {
		t.Fatalf("replays: %v", err)
	}
	want := strings.Join(sortedNames(t, "defined per-layer", metricNames(perLayer())), " ")
	wantE2E := strings.Join(sortedNames(t, "defined end-to-end", metricNames(endToEnd)), " ")
	for _, w := range workloads {
		c := tinyChild(t, w)
		rep, err := c.timed(0, true)
		if err != nil {
			t.Fatalf("%s: %v", w.Name, err)
		}
		if rep.Attempted != 3 || rep.Failed != 0 || len(rep.Iters) != 1 {
			t.Errorf("%s: attempted %d failed %d timed %d, want 3, 0, 1", w.Name, rep.Attempted, rep.Failed, len(rep.Iters))
		}
		got := strings.Join(sortedNames(t, w.Name, keys(perLayerValues(rep, replayed))), " ")
		if got != want {
			t.Errorf("%s: per-layer metrics emitted\n  %s\nwant\n  %s", w.Name, got, want)
		}
		e2e := map[string]float64{}
		for k, s := range endToEndStats(rep, []float64{0.01}, 1) {
			e2e[k] = s.Median
			if !(s.Median > 0) {
				t.Errorf("%s: %s = %g, want > 0", w.Name, k, s.Median)
			}
		}
		if got := strings.Join(sortedNames(t, w.Name, keys(e2e)), " "); got != wantE2E {
			t.Errorf("%s: end-to-end metrics emitted %s, want %s", w.Name, got, wantE2E)
		}
	}
}
