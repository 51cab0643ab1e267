package experiments

import (
	"fmt"
	"testing"
	"time"
)

// TestParallelMatchesSequential is the engine's core guarantee: a
// parallel replay renders byte-identical tables to a sequential one,
// because every series owns its clock, host and RNG and rows are
// assembled in a fixed order after the pool drains.
func TestParallelMatchesSequential(t *testing.T) {
	ids := []string{"fig05", "fig09"}
	seq := Options{Scale: 0.06, Seed: 7, Samples: 6, Parallel: 1}
	par := seq
	par.Parallel = 4

	want, err := RunMany(ids, seq)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunMany(ids, par)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("result count %d != %d", len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID {
			t.Fatalf("order: got %s at %d, want %s", got[i].ID, i, want[i].ID)
		}
		ws, gs := want[i].Table.String(), got[i].Table.String()
		if ws != gs {
			t.Errorf("%s: parallel output differs from sequential\n--- sequential ---\n%s\n--- parallel ---\n%s",
				want[i].ID, ws, gs)
		}
		if got[i].VirtualMS != want[i].VirtualMS {
			t.Errorf("%s: virtual time %v != %v", want[i].ID, got[i].VirtualMS, want[i].VirtualMS)
		}
	}
}

// TestRunManyRecordsWall checks the per-figure bookkeeping RunMany
// adds on top of Run.
func TestRunManyRecordsWall(t *testing.T) {
	res, err := RunMany([]string{"fig01"}, Options{Scale: 0.05, Seed: 3, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res[0].Wall <= 0 {
		t.Errorf("Wall = %v, want > 0", res[0].Wall)
	}
	if res[0].Allocs == 0 {
		t.Errorf("Allocs = 0 on a sequential run, want > 0")
	}
}

// TestParallelRunRecordsNoAllocs: Go's allocation counter is
// process-wide, so a parallel run cannot attribute allocations to a
// figure and must report none rather than a guess.
func TestParallelRunRecordsNoAllocs(t *testing.T) {
	ids := []string{"fig01", "fig02"}
	res, err := RunMany(ids, Options{Scale: 0.05, Seed: 3, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res {
		if r.Allocs != 0 {
			t.Errorf("%s: Allocs = %d on a parallel run, want 0", r.ID, r.Allocs)
		}
	}
}

// TestRunSeriesErrorDeterminism: the pool reports the lowest-indexed
// failure no matter which worker hits its error first.
func TestRunSeriesErrorDeterminism(t *testing.T) {
	o := Options{Parallel: 4}
	err := o.runSeries(8, func(i int) error {
		if i%2 == 1 {
			time.Sleep(time.Duration(8-i) * time.Millisecond)
			return errAt(i)
		}
		return nil
	})
	if err == nil || err.Error() != "job 1" {
		t.Fatalf("err = %v, want job 1", err)
	}
}

type errAt int

func (e errAt) Error() string { return fmt.Sprintf("job %d", int(e)) }

// TestSamplePointsEdgeCases pins the fixed sampling behaviour: the
// final point appears exactly once, degenerate n is safe, and
// un-normalized options fall back to the default sample count.
func TestSamplePointsEdgeCases(t *testing.T) {
	// n an exact multiple of samples: the loop lands on n itself and
	// the tail guard must not duplicate it.
	o := Options{Samples: 5}
	pts := o.samplePoints(100)
	if pts[len(pts)-1] != 100 {
		t.Fatalf("last point = %d, want 100", pts[len(pts)-1])
	}
	for i := 1; i < len(pts); i++ {
		if pts[i] == pts[i-1] {
			t.Fatalf("duplicate point %d in %v", pts[i], pts)
		}
	}
	// n not a multiple: the guard appends n once.
	pts = o.samplePoints(103)
	if pts[len(pts)-1] != 103 || pts[len(pts)-2] == 103 {
		t.Fatalf("points = %v, want single trailing 103", pts)
	}
	// Samples > n: every count 1..n.
	pts = o.samplePoints(3)
	if len(pts) != 3 || pts[0] != 1 || pts[2] != 3 {
		t.Fatalf("small points = %v", pts)
	}
	// Degenerate n must not panic or emit points.
	if pts := o.samplePoints(0); len(pts) != 0 {
		t.Fatalf("n=0 points = %v, want none", pts)
	}
	if pts := o.samplePoints(-5); len(pts) != 0 {
		t.Fatalf("n<0 points = %v, want none", pts)
	}
	// Un-normalized options (Samples == 0) fall back to the default
	// rather than dividing by zero.
	var zero Options
	pts = zero.samplePoints(100)
	if len(pts) != defaultSamples || pts[len(pts)-1] != 100 {
		t.Fatalf("unnormalized points = %v", pts)
	}
}
