package experiments

import (
	"fmt"

	"lightvm/internal/toolstack"
	"lightvm/internal/traffic"
)

// The cell harness behind every multi-timeline figure. A cell is one
// independent measurement on a clock (and hosts) of its own: a
// population-sweep curve, a padding point, an arrival rate, an
// (xl|chaos, rate) pair, a sampled serving host. cells runs them
// through runSeries and reduces their final clocks to the makespan;
// the pair grid and the fleet sampler below fix how the robustness
// and serving figures lay out and seed their cells.

// cells runs cells 0..n-1 through runSeries, each on its own
// timeline, and returns the makespan: the latest final virtual time
// (ms) any cell reports. The lowest-indexed error wins.
func (o Options) cells(n int, cell func(i int) (float64, error)) (float64, error) {
	virtMS := make([]float64, n)
	err := o.runSeries(n, func(i int) error {
		v, err := cell(i)
		virtMS[i] = v
		return err
	})
	if err != nil {
		return 0, err
	}
	return maxOf(virtMS), nil
}

// maxOf returns the largest element of vs (0 when empty).
func maxOf(vs []float64) float64 {
	out := 0.0
	for _, v := range vs {
		out = max(out, v)
	}
	return out
}

// cellSeed is cell j's seed in a grid of seeded cells: every cell
// owns an independent but reproducible timeline.
func (o Options) cellSeed(j int) uint64 { return o.Seed + uint64(j)*7919 }

// pairMode is one side of the robustness figures' control-plane pair.
type pairMode struct {
	name string
	mode toolstack.Mode
}

// xlChaos is the pair ext-faults, ext-gray and ext-churn compare, in
// table-column order: the stock toolstack against chaos.
var xlChaos = [2]pairMode{{"xl", toolstack.ModeXL}, {"chaos", toolstack.ModeLightVM}}

// pairGrid runs k points per xlChaos mode as cells: cell
// j = mode*k + point, seeded cellSeed(j). cell returns its
// measurement and final virtual time (ms). pairGrid returns each
// mode's measurements in point order, and the makespan.
func pairGrid[C any](o Options, k int, cell func(m pairMode, point int, seed uint64) (C, float64, error)) ([2][]C, float64, error) {
	all := make([]C, len(xlChaos)*k)
	virtMS, err := o.cells(len(all), func(j int) (float64, error) {
		c, v, err := cell(xlChaos[j/k], j%k, o.cellSeed(j))
		all[j] = c
		return v, err
	})
	return [2][]C{all[:k], all[k:]}, virtMS, err
}

// fleet serves a deterministic sample of hosts per cell for the
// serving figures: host h of cell ci is its own traffic.Serve on a
// fresh host and clock, seeded from base = cellSeed(ci) and h, and
// audited by toolstack.Fsck. config builds that host's
// traffic.Config; label names cell ci in errors. fleet returns each
// cell's stats merged in host order, and the makespan.
func (o Options) fleet(ncells, hosts int, label func(ci int) string,
	config func(ci int, base, seed uint64) traffic.Config) ([]*traffic.Stats, float64, error) {
	stats := make([]*traffic.Stats, ncells*hosts)
	virtMS, err := o.cells(len(stats), func(j int) (float64, error) {
		ci, host := j/hosts, j%hosts
		base := o.cellSeed(ci)
		st, h, err := traffic.Serve(config(ci, base, base+uint64(host)*104729+1))
		if err != nil {
			return 0, fmt.Errorf("%s host %d: %w", label(ci), host, err)
		}
		if v := toolstack.Fsck(h.Env); len(v) > 0 {
			return 0, fmt.Errorf("%s host %d: fsck: %v", label(ci), host, v)
		}
		stats[j] = st
		return h.Clock.Now().Milliseconds(), nil
	})
	if err != nil {
		return nil, 0, err
	}
	merged := make([]*traffic.Stats, ncells)
	for ci := range merged {
		m := &traffic.Stats{Mode: stats[ci*hosts].Mode}
		for _, st := range stats[ci*hosts : (ci+1)*hosts] {
			m.Merge(st)
		}
		merged[ci] = m
	}
	return merged, virtMS, nil
}
