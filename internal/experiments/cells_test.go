package experiments

import (
	"reflect"
	"testing"

	"lightvm/internal/toolstack"
	"lightvm/internal/traffic"
)

// TestPairGridLayout pins the pair grid's cell layout: cell
// j = mode*k + point runs mode xlChaos[mode] with seed cellSeed(j),
// each mode's cells come back in point order, and the makespan is the
// latest cell clock — at every worker count.
func TestPairGridLayout(t *testing.T) {
	type got struct {
		mode  toolstack.Mode
		point int
		seed  uint64
	}
	const k = 3
	for _, par := range []int{1, 4} {
		o := Options{Seed: 5, Parallel: par}
		grid, virtMS, err := pairGrid(o, k, func(m pairMode, p int, seed uint64) (got, float64, error) {
			return got{m.mode, p, seed}, float64(seed % 1000), nil
		})
		if err != nil {
			t.Fatal(err)
		}
		want := 0.0
		for mi, m := range xlChaos {
			if len(grid[mi]) != k {
				t.Fatalf("parallel %d: %s has %d cells, want %d", par, m.name, len(grid[mi]), k)
			}
			for p, c := range grid[mi] {
				seed := uint64(5 + (mi*k+p)*7919)
				if c != (got{m.mode, p, seed}) {
					t.Fatalf("parallel %d: %s point %d = %+v, want seed %d", par, m.name, p, c, seed)
				}
				want = max(want, float64(seed%1000))
			}
		}
		if virtMS != want {
			t.Fatalf("parallel %d: makespan %v, want %v", par, virtMS, want)
		}
	}
}

// TestSummarizeServingReasons: the summary names exactly the reasons
// that shed work, under their traffic.RejectReason names, and omits
// the map when nothing was shed.
func TestSummarizeServingReasons(t *testing.T) {
	if s := summarizeServing([]*traffic.Stats{{Arrived: 3, Served: 3}}); s.RejectedByReason != nil {
		t.Fatalf("nothing shed, got reasons %v", s.RejectedByReason)
	}
	cells := []*traffic.Stats{
		{RejectedBacklog: 1, RejectedQuota: 2},
		{RejectedCapacity: 3, RejectedOverload: 0, RejectedBudget: 4},
	}
	want := map[string]int{
		traffic.RejectBacklog.String():  1,
		traffic.RejectCapacity.String(): 3,
		traffic.RejectQuota.String():    2,
		traffic.RejectBudget.String():   4,
	}
	if got := summarizeServing(cells).RejectedByReason; !reflect.DeepEqual(got, want) {
		t.Fatalf("reasons %v, want %v", got, want)
	}
}
