package experiments

import (
	"errors"
	"reflect"
	"testing"

	"lightvm/internal/core"
	"lightvm/internal/guest"
	"lightvm/internal/sched"
	"lightvm/internal/toolstack"
)

// fake is a curve whose steps touch no host.
func fake(cols int, wall bool, add step) curve {
	return curve{machine: sched.Xeon4, cols: cols, wall: wall, setup: func(*core.Host) (step, error) { return add, nil }}
}

// countCurve reads 10·i and 10·i+1 and logs the counts at which the
// sweep handed it a record, so tests can see what the harness asked
// for.
func countCurve(sampled *[]int) curve {
	return fake(2, false, func(i int, rec []float64) error {
		if rec != nil {
			*sampled = append(*sampled, i)
			rec[0], rec[1] = float64(10*i), float64(10*i+1)
		}
		return nil
	})
}

// wallCurve reads i and hits its wall from count at on.
func wallCurve(at, cols int) curve {
	return fake(cols, true, func(i int, rec []float64) error {
		if i >= at {
			return errors.New("out of memory")
		}
		if rec != nil {
			rec[0] = float64(i)
		}
		return nil
	})
}

func TestSweepKeepsReadingsOnlyAtSampledCounts(t *testing.T) {
	o := Options{Seed: 1, Samples: 5, Parallel: 1}
	var sampled []int
	setups, steps := 0, 0
	c := countCurve(&sampled)
	start := c.setup
	c.setup = func(h *core.Host) (step, error) {
		setups++
		inner, err := start(h)
		return func(i int, rec []float64) error {
			if steps++; i != steps {
				t.Errorf("step %d got count %d", steps, i)
			}
			return inner(i, rec)
		}, err
	}
	pop, err := o.sweep(23, c)
	if err != nil {
		t.Fatal(err)
	}
	points := o.samplePoints(23)
	if setups != 1 || steps != 23 {
		t.Fatalf("setup ran %d times and step %d times, want 1 and 23", setups, steps)
	}
	if !reflect.DeepEqual(sampled, points) {
		t.Fatalf("step saw a record at %v, want exactly the sampled counts %v", sampled, points)
	}
	if len(pop.rows) != len(points) {
		t.Fatalf("%d rows for %d sampled counts", len(pop.rows), len(points))
	}
	for k, p := range points {
		want := []float64{float64(p), float64(10 * p), float64(10*p + 1)}
		if !reflect.DeepEqual(pop.rows[k], want) {
			t.Errorf("row %d = %v, want %v", k, pop.rows[k], want)
		}
	}
	if pop.walls[0] != 0 {
		t.Errorf("wall %d on a curve without one", pop.walls[0])
	}
}

func TestSweepWallFillsLaterPointsWithMinusOne(t *testing.T) {
	o := Options{Seed: 1, Samples: 5, Parallel: 1}
	var sampled []int
	pop, err := o.sweep(20, countCurve(&sampled), wallCurve(9, 2))
	if err != nil {
		t.Fatalf("a wall is not a failure: %v", err)
	}
	if pop.walls[0] != 0 || pop.walls[1] != 9 {
		t.Fatalf("walls = %v, want [0 9]", pop.walls)
	}
	// Sampled counts 4 8 12 16 20: the wall at 9 leaves 4 and 8 read.
	want := [][]float64{
		{4, 40, 41, 4, 0},
		{8, 80, 81, 8, 0},
		{12, 120, 121, -1, -1},
		{16, 160, 161, -1, -1},
		{20, 200, 201, -1, -1},
	}
	if !reflect.DeepEqual(pop.rows, want) {
		t.Fatalf("rows = %v, want %v", pop.rows, want)
	}

	// A wall on a sampled count reads −1 there too.
	pop, err = o.sweep(20, wallCurve(8, 1))
	if err != nil {
		t.Fatal(err)
	}
	if pop.walls[0] != 8 || pop.rows[0][1] != 4 || pop.rows[1][1] != -1 {
		t.Fatalf("wall at a sampled count: walls %v rows %v", pop.walls, pop.rows)
	}
}

func TestSweepRowsIndependentOfParallel(t *testing.T) {
	// The same curves sweep twice: a curve keeps no state between runs.
	curves := []curve{
		bootCurve(sched.Xeon4, toolstack.ModeLightVM, guest.Daytime()),
		dockerCurve(sched.Xeon4),
		wallCurve(17, 1),
		bootCurve(sched.Xeon4, toolstack.ModeXL, guest.Daytime()),
	}
	run := func(parallel int) population {
		o := Options{Seed: 3, Samples: 6, Parallel: parallel}
		pop, err := o.sweep(30, curves...)
		if err != nil {
			t.Fatal(err)
		}
		return pop
	}
	seq, par := run(1), run(4)
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("Parallel 4 differs from Parallel 1:\n%+v\n%+v", par, seq)
	}
	if seq.virtMS <= 0 {
		t.Fatalf("makespan %v, want > 0", seq.virtMS)
	}
}

func TestSweepLowestIndexedErrorWins(t *testing.T) {
	errA, errB := errors.New("curve 1 failed"), errors.New("curve 2 failed")
	fail := func(at int, err error) curve {
		return fake(1, false, func(i int, rec []float64) error {
			if i == at {
				return err
			}
			return nil
		})
	}
	var sampled []int
	for _, parallel := range []int{1, 4} {
		o := Options{Seed: 1, Samples: 4, Parallel: parallel}
		// Curve 2 fails first in instance order; curve 1 still wins.
		_, err := o.sweep(12, countCurve(&sampled), fail(9, errA), fail(2, errB))
		if !errors.Is(err, errA) {
			t.Errorf("Parallel %d: err = %v, want the lowest-indexed curve's %v", parallel, err, errA)
		}
	}
}
