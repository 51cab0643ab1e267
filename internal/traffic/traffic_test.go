package traffic

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"lightvm/internal/faults"
	"lightvm/internal/guest"
	"lightvm/internal/toolstack"
)

func TestServeConfigValidation(t *testing.T) {
	if _, _, err := Serve(Config{Requests: 10}); err == nil {
		t.Fatal("Serve without Arrivals succeeded")
	}
	if _, _, err := Serve(Config{Arrivals: NewPoisson(1, 10)}); err == nil {
		t.Fatal("Serve without Requests succeeded")
	}
}

// TestServeDeterministic: the whole serving timeline is a pure
// function of the config — same seed, same stats, bit for bit.
func TestServeDeterministic(t *testing.T) {
	for _, mode := range []Mode{VMPerRequest, PoolReactive, PoolPredictive, Container, Process} {
		run := func() *Stats {
			st, _, err := Serve(Config{
				Mode:     mode,
				Seed:     3,
				Arrivals: NewPoisson(17, 50),
				Requests: 120,
			})
			if err != nil {
				t.Fatalf("%v: %v", mode, err)
			}
			return st
		}
		a, b := run(), run()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%v: same seed produced different stats:\n%+v\nvs\n%+v", mode, a, b)
		}
		if a.Served == 0 {
			t.Fatalf("%v: served nothing", mode)
		}
		if int(a.Latency.Count()) != a.Served {
			t.Fatalf("%v: histogram holds %d samples, served %d", mode, a.Latency.Count(), a.Served)
		}
	}
}

// TestServeAccounting: arrivals all end up either served or rejected,
// and the reject reasons partition the rejects.
func TestServeAccounting(t *testing.T) {
	for _, mode := range []Mode{VMPerRequest, Container} {
		// Well past each backend's saturation throughput.
		st, _, err := Serve(Config{
			Mode:     mode,
			Seed:     1,
			Arrivals: NewPoisson(2, 5000),
			Requests: 400,
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if st.Served+st.Rejected != st.Arrived {
			t.Fatalf("%v: served %d + rejected %d != arrived %d", mode, st.Served, st.Rejected, st.Arrived)
		}
		if st.Rejected == 0 {
			t.Fatalf("%v: open-loop overload shed nothing", mode)
		}
		if st.RejectedBacklog+st.RejectedCapacity != st.Rejected {
			t.Fatalf("%v: reject reasons %d+%d don't partition %d rejects",
				mode, st.RejectedBacklog, st.RejectedCapacity, st.Rejected)
		}
		if got := st.RejectRate(); got <= 0 || got > 1 {
			t.Fatalf("%v: reject rate %v out of range", mode, got)
		}
	}
}

// TestServeTimeouts: with an impossible client deadline every served
// response counts as timed out — the server still does the work.
func TestServeTimeouts(t *testing.T) {
	st, _, err := Serve(Config{
		Mode:     VMPerRequest,
		Seed:     1,
		Arrivals: NewPoisson(2, 20),
		Requests: 60,
		Timeout:  time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.TimedOut != st.Served {
		t.Fatalf("timed out %d of %d served under a 1µs deadline", st.TimedOut, st.Served)
	}
	if got := st.TimeoutRate(); got != 1 {
		t.Fatalf("timeout rate %v, want 1 (nothing rejected at this rate)", got)
	}
}

// TestServeRejectTyped: the reject reasons print their stable names
// (the keys the serving figures report).
func TestServeRejectTyped(t *testing.T) {
	want := []string{"backlog", "capacity", "overload", "quota", "retry-budget"}
	for r, name := range want {
		if got := RejectReason(r).String(); got != name {
			t.Fatalf("reason %d prints %q, want %q", r, got, name)
		}
	}
	if got := RejectReason(len(want)).String(); got != "unknown" {
		t.Fatalf("out-of-range reason prints %q", got)
	}
}

// TestServeConservation: every mode, under every overload fault plan,
// with the defenses off and all on, conserves requests through a
// calm/burst/calm arrival process — each arrival is served or shed
// exactly once, in the run totals and in every phase — and leaves the
// host fsck-clean.
func TestServeConservation(t *testing.T) {
	const requests = 160
	storm := faults.KindRetryStorm
	plans := []struct {
		name string
		plan faults.Plan
	}{
		{"none", faults.Plan{}},
		{"storm", faults.Plan{Rate: 0.5, Kinds: []faults.Kind{storm}}},
		{"mem+storm", faults.Plan{Rate: 0.05, Kinds: []faults.Kind{faults.KindMemPressure, storm}}},
		{"quota+storm", faults.Plan{Rate: 0.1, Kinds: []faults.Kind{faults.KindStoreQuota, storm}}},
	}
	defenses := []Defense{{}, {AdaptiveAdmit: true, RetryBudget: 0.2, PriorityShed: true, Brownout: true}}
	seed := uint64(0)
	for _, mode := range []Mode{VMPerRequest, PoolReactive, PoolPredictive, Container, Process, VMPerRequestXL} {
		capacity, err := EstimateCapacity(mode, guest.Daytime())
		if err != nil {
			t.Fatal(err)
		}
		perReq := time.Duration(float64(time.Second) / capacity)
		t1, t2 := 50*perReq, 80*perReq
		for _, p := range plans {
			for di, d := range defenses {
				seed++
				name := fmt.Sprintf("%v/%s/def%d", mode, p.name, di)
				st, h, err := Serve(Config{
					Mode: mode,
					Seed: seed,
					Arrivals: NewPhased(seed, []PhaseRate{
						{Rate: 0.7 * capacity, Until: t1},
						{Rate: 3 * capacity, Until: t2},
						{Rate: 0.7 * capacity},
					}),
					Requests:    requests,
					MaxBacklog:  90 * perReq,
					Timeout:     30 * perReq,
					FaultPlan:   p.plan,
					Defense:     d,
					PhaseBounds: []time.Duration{t1, t2},
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				checkConservation(t, name, mode, requests, st)
				if v := toolstack.Fsck(h.Env); len(v) > 0 {
					t.Fatalf("%s: fsck: %v", name, v)
				}
			}
		}
	}
}

func checkConservation(t *testing.T, name string, mode Mode, requests int, st *Stats) {
	t.Helper()
	if st.Arrived != st.Served+st.Rejected {
		t.Fatalf("%s: arrived %d != served %d + rejected %d", name, st.Arrived, st.Served, st.Rejected)
	}
	if sum := st.RejectedBacklog + st.RejectedCapacity + st.RejectedOverload + st.RejectedQuota + st.RejectedBudget; sum != st.Rejected {
		t.Fatalf("%s: reject reasons sum to %d, rejected %d", name, sum, st.Rejected)
	}
	if st.TimedOut > st.Served || st.Retries > st.RetryScheduled {
		t.Fatalf("%s: timed out %d of %d served, %d retries of %d scheduled",
			name, st.TimedOut, st.Served, st.Retries, st.RetryScheduled)
	}
	fresh := 0
	for i, ph := range st.Phases {
		if ph.Arrived != ph.Fresh+ph.Retried || ph.Arrived != ph.Served+ph.Rejected || ph.Served != ph.Good+ph.TimedOut {
			t.Fatalf("%s: phase %d does not conserve requests: %+v", name, i, ph)
		}
		fresh += ph.Fresh
	}
	if fresh != requests {
		t.Fatalf("%s: phases saw %d fresh arrivals, want %d", name, fresh, requests)
	}
	// Every VM-served request was answered by the guest's app; the
	// container and process modes run none.
	wantCalls := uint64(0)
	if mode.isVM() {
		wantCalls = uint64(st.Served)
	}
	if st.AppCalls != wantCalls {
		t.Fatalf("%s: %d app calls for %d served, want %d", name, st.AppCalls, st.Served, wantCalls)
	}
}

// TestServeWarmSamples: pool modes sample the warm-shell depth over
// time; non-pool modes record zeros (the column is still present so
// fleet merges stay aligned).
func TestServeWarmSamples(t *testing.T) {
	pool, _, err := Serve(Config{
		Mode:     PoolReactive,
		Seed:     1,
		Arrivals: NewPoisson(2, 50),
		Requests: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pool.Warm) == 0 {
		t.Fatal("pool mode recorded no warm samples")
	}
	warmSeen := false
	for _, w := range pool.Warm {
		if w > 0 {
			warmSeen = true
		}
	}
	if !warmSeen {
		t.Fatalf("pool never had a warm shell: %v", pool.Warm)
	}
	vm, _, err := Serve(Config{
		Mode:     VMPerRequest,
		Seed:     1,
		Arrivals: NewPoisson(2, 50),
		Requests: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range vm.Warm {
		if w != 0 {
			t.Fatalf("vm-per-request mode reported warm shells: %v", vm.Warm)
		}
	}
}

// TestServeFsckClean: every mode leaves the host consistent — no
// leaked domains, devices, or store subtrees after the run.
func TestServeFsckClean(t *testing.T) {
	for _, mode := range []Mode{VMPerRequest, PoolReactive, PoolPredictive, Container, Process} {
		_, h, err := Serve(Config{
			Mode:     mode,
			Seed:     9,
			Arrivals: NewPoisson(4, 100),
			Requests: 80,
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		if v := toolstack.Fsck(h.Env); len(v) > 0 {
			t.Fatalf("%v: fsck: %v", mode, v)
		}
	}
}

// TestServePoolBeatsCold: at a boot-dominated rate the warm pool's
// median is the take path, below the cold boot median — the figure's
// headline ordering at unit-test scale.
func TestServePoolBeatsCold(t *testing.T) {
	run := func(mode Mode) *Stats {
		st, _, err := Serve(Config{
			Mode:     mode,
			Seed:     1,
			Arrivals: NewPoisson(2, 20),
			Requests: 300,
		})
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		return st
	}
	cold, warm := run(VMPerRequest), run(PoolReactive)
	if warm.Latency.P50() >= cold.Latency.P50() {
		t.Fatalf("pool p50 %v not below cold-boot p50 %v", warm.Latency.P50(), cold.Latency.P50())
	}
}

// TestStatsMerge: fleet aggregation sums counters, merges histograms
// losslessly, and sums warm trajectories index-wise.
func TestStatsMerge(t *testing.T) {
	run := func(seed uint64) *Stats {
		st, _, err := Serve(Config{
			Mode:     PoolReactive,
			Seed:     seed,
			Arrivals: NewPoisson(seed, 50),
			Requests: 64,
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(1), run(2)
	var m Stats
	m.Merge(a)
	m.Merge(b)
	if m.Arrived != a.Arrived+b.Arrived || m.Served != a.Served+b.Served {
		t.Fatalf("merge counters wrong: %+v", m)
	}
	if m.Latency.Count() != a.Latency.Count()+b.Latency.Count() {
		t.Fatalf("merged histogram count %d != %d + %d",
			m.Latency.Count(), a.Latency.Count(), b.Latency.Count())
	}
	if len(m.Warm) != len(a.Warm) {
		t.Fatalf("merged warm length %d, want %d", len(m.Warm), len(a.Warm))
	}
	for i := range m.Warm {
		if m.Warm[i] != a.Warm[i]+b.Warm[i] {
			t.Fatalf("warm[%d] = %d, want %d+%d", i, m.Warm[i], a.Warm[i], b.Warm[i])
		}
	}
	if m.Elapsed != maxDur(a.Elapsed, b.Elapsed) {
		t.Fatalf("merged elapsed %v, want max(%v, %v)", m.Elapsed, a.Elapsed, b.Elapsed)
	}
}

func maxDur(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
