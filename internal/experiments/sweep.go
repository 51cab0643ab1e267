package experiments

import (
	"fmt"

	"lightvm/internal/core"
	"lightvm/internal/metrics"
	"lightvm/internal/sched"
)

// The population sweep behind every "vs number of instances" figure
// (Figs. 4, 5, 9–15, 16a and the §9/footnote-3 extensions): each
// curve grows a guest population one instance at a time on a host of
// its own and is read at the sampled counts. A figure says only what
// a curve's host is, how it is set up and what adding instance i
// means; sampling, the per-curve hosts, the population wall and the row
// layout live here once; the curves run as cells (cells.go).

// curve is one series of a population sweep.
type curve struct {
	// machine is the curve's fresh host, seeded with Options.Seed.
	machine sched.Machine
	// cols is the number of readings the curve gives per sampled count
	// (0 means 1).
	cols int
	// wall makes a step error the curve's population wall rather than
	// a failure: the curve stops there and reads −1 at that count and
	// every later sampled count.
	wall bool
	// setup prepares the fresh host and returns the step that grows
	// it. Whatever a run keeps besides the host (drivers, a second
	// host, an RNG, a base reading) lives in the step's closure, so a
	// finished curve's host is garbage while the other curves still
	// run.
	setup func(h *core.Host) (step, error)
}

// step adds instance i (1-based). At a sampled count rec is the
// curve's cols readings for that count, to be filled in; at every
// other count it is nil, so sampled-only work can be skipped.
type step func(i int, rec []float64) error

// population is what a sweep measured.
type population struct {
	// rows holds one row per sampled count: the count, then every
	// curve's readings in curve order — a table row as it stands.
	rows [][]float64
	// walls is each curve's population wall (0 = none).
	walls []int
	// virtMS is the makespan: the latest final clock of any curve.
	virtMS float64
}

// sweep grows every curve to n instances, each on its own host and
// timeline, running the curves as cells.
func (o Options) sweep(n int, curves ...curve) (population, error) {
	points := o.samplePoints(n)
	offs := make([]int, len(curves)+1)
	offs[0] = 1
	for j, c := range curves {
		offs[j+1] = offs[j] + max(c.cols, 1)
	}
	width := offs[len(curves)]
	buf := make([]float64, len(points)*width)
	pop := population{rows: make([][]float64, len(points)), walls: make([]int, len(curves))}
	for k, p := range points {
		pop.rows[k] = buf[k*width : (k+1)*width : (k+1)*width]
		pop.rows[k][0] = float64(p)
	}
	var err error
	pop.virtMS, err = o.cells(len(curves), func(j int) (float64, error) {
		c := curves[j]
		h, err := core.NewHost(c.machine, o.Seed)
		if err != nil {
			return 0, err
		}
		add, err := c.setup(h)
		if err != nil {
			return 0, err
		}
		lo, hi := offs[j], offs[j+1]
		k := 0 // next sampled count's index
		for i := 1; i <= n; i++ {
			var rec []float64
			if k < len(points) && points[k] == i {
				rec = pop.rows[k][lo:hi]
			}
			if err := add(i, rec); err != nil {
				if !c.wall {
					return 0, fmt.Errorf("instance %d: %w", i, err)
				}
				pop.walls[j] = i
				for ; k < len(points); k++ {
					for x := lo; x < hi; x++ {
						pop.rows[k][x] = -1
					}
				}
				break
			}
			if rec != nil {
				k++
			}
		}
		return h.Clock.Now().Milliseconds(), nil
	})
	if err != nil {
		return population{}, err
	}
	return pop, nil
}

// addRows appends every sampled row to t.
func (p population) addRows(t *metrics.Table) {
	for _, r := range p.rows {
		t.AddRow(r...)
	}
}
