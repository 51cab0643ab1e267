package traffic

import (
	"reflect"
	"testing"
	"time"

	"lightvm/internal/faults"
	"lightvm/internal/guest"
	"lightvm/internal/sim"
	"lightvm/internal/toolstack"
)

func TestAIMDLimiter(t *testing.T) {
	target := 100 * time.Millisecond
	lim := newAIMDLimiter(target, 2*time.Second)
	if lim.limit != target {
		t.Fatalf("initial limit %v, want %v", lim.limit, target)
	}
	// Multiplicative decrease on late responses.
	lim.observe(target * 2)
	if lim.limit >= target {
		t.Fatalf("late response did not shrink the limit: %v", lim.limit)
	}
	after := lim.limit
	// Additive increase on in-target responses.
	lim.observe(target / 2)
	if lim.limit != after+target/16 {
		t.Fatalf("in-target response grew limit to %v, want %v", lim.limit, after+target/16)
	}
	// Floor: sustained lateness cannot drive the limit to zero.
	for i := 0; i < 1000; i++ {
		lim.observe(time.Hour)
	}
	if lim.limit < lim.min || lim.limit <= 0 {
		t.Fatalf("limit fell through the floor: %v", lim.limit)
	}
	// Ceiling: sustained headroom cannot exceed the static deadline.
	for i := 0; i < 10000; i++ {
		lim.observe(0)
	}
	if lim.limit > 2*time.Second {
		t.Fatalf("limit exceeded MaxBacklog: %v", lim.limit)
	}
}

func TestRetryBudgetBucket(t *testing.T) {
	b := newRetryBudget(0.5)
	// The initial burst allowance drains...
	spent := 0
	for b.spend() {
		spent++
		if spent > 1000 {
			t.Fatal("budget never exhausts")
		}
	}
	// ...and is re-earned at ratio per fresh arrival: 10 fresh = 5 retries.
	for i := 0; i < 10; i++ {
		b.earn()
	}
	re := 0
	for b.spend() {
		re++
	}
	if re != 5 {
		t.Fatalf("10 fresh arrivals at ratio 0.5 bought %d retries, want 5", re)
	}
}

func TestStateGaugeLadder(t *testing.T) {
	target := 100 * time.Millisecond
	limit := 500 * time.Millisecond
	g := newStateGauge(target, 0)
	at := func(ms int64) sim.Time { return sim.Time(ms * int64(time.Millisecond)) }
	if s := g.observe(at(10), 0, limit); s != StateNormal {
		t.Fatalf("idle plane not Normal: %v", s)
	}
	if s := g.observe(at(20), 60*time.Millisecond, limit); s != StateBrownout {
		t.Fatalf("backlog past target/2 not Brownout: %v", s)
	}
	if s := g.observe(at(30), 600*time.Millisecond, limit); s != StateShedding {
		t.Fatalf("backlog past limit not Shedding: %v", s)
	}
	// Hysteresis: backlog in (target/4, target/2] holds Brownout after
	// Shedding rather than snapping back to Normal.
	if s := g.observe(at(40), 40*time.Millisecond, limit); s != StateBrownout {
		t.Fatalf("hysteresis band after shedding: %v, want brownout", s)
	}
	if s := g.observe(at(50), 10*time.Millisecond, limit); s != StateNormal {
		t.Fatalf("quiet plane did not recover: %v", s)
	}
	g.flush(at(100))
	if g.inState[StateBrownout] != 20*time.Millisecond {
		t.Fatalf("brownout time %v, want 20ms", g.inState[StateBrownout])
	}
	if g.inState[StateShedding] != 10*time.Millisecond {
		t.Fatalf("shedding time %v, want 10ms", g.inState[StateShedding])
	}
	if g.inState[StateNormal] != 70*time.Millisecond {
		t.Fatalf("normal time %v, want 70ms", g.inState[StateNormal])
	}
	if g.changes != 4 {
		t.Fatalf("state changes %d, want 4", g.changes)
	}
	if StateNormal.String() != "normal" || StateBrownout.String() != "brownout" ||
		StateShedding.String() != "shedding" {
		t.Fatal("state names wrong")
	}
}

func TestRetryHeapOrdering(t *testing.T) {
	var h retryHeap
	h.push(retryReq{at: 30, seq: 2})
	h.push(retryReq{at: 10, seq: 1})
	h.push(retryReq{at: 10, seq: 0})
	h.push(retryReq{at: 20, seq: 3})
	var got []int
	for len(h) > 0 {
		got = append(got, h.pop().seq)
	}
	if !reflect.DeepEqual(got, []int{0, 1, 3, 2}) {
		t.Fatalf("heap order %v, want [0 1 3 2] (time, then seq)", got)
	}
}

func TestPhasedArrivals(t *testing.T) {
	// Same seed, same gaps.
	phases := []PhaseRate{{Rate: 100, Until: time.Second}, {Rate: 400, Until: 2 * time.Second}, {Rate: 100}}
	a, b := NewPhased(7, phases), NewPhased(7, phases)
	for i := 0; i < 1000; i++ {
		if a.Next() != b.Next() {
			t.Fatalf("gap %d differs across same-seed instances", i)
		}
	}
	// Rates switch at the boundaries: count arrivals per window.
	p := NewPhased(11, phases)
	var cursor time.Duration
	counts := [3]int{}
	for cursor < 3*time.Second {
		cursor += p.Next()
		switch {
		case cursor < time.Second:
			counts[0]++
		case cursor < 2*time.Second:
			counts[1]++
		default:
			counts[2]++
		}
	}
	if counts[1] < 2*counts[0] {
		t.Fatalf("burst phase not faster: %v", counts)
	}
	if counts[2] > counts[1]/2 {
		t.Fatalf("post phase did not slow down: %v", counts)
	}
}

// stormPlan arms only the retry-storm kind at rate p.
func stormPlan(p float64) faults.Plan {
	return faults.Plan{Rate: p, Kinds: []faults.Kind{faults.KindRetryStorm}}
}

// overloadConfig drives the chaos per-request mode at mult× its
// calibrated capacity with a storm plan at rate storm.
func overloadConfig(t *testing.T, seed uint64, mult, storm float64, d Defense) Config {
	t.Helper()
	cap, err := EstimateCapacity(VMPerRequest, guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Mode:       VMPerRequest,
		Seed:       seed,
		Arrivals:   NewPoisson(seed+100, cap*mult),
		Requests:   300,
		Timeout:    300 * time.Millisecond,
		MaxBacklog: 900 * time.Millisecond,
		FaultPlan:  stormPlan(storm),
		Defense:    d,
	}
}

func TestRetryStormAmplifiesAndStaysDeterministic(t *testing.T) {
	run := func() *Stats {
		st, _, err := Serve(overloadConfig(t, 5, 2.0, 0.9, Defense{}))
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("storm run not deterministic:\n%+v\nvs\n%+v", a, b)
	}
	if a.RetryScheduled == 0 || a.Retries == 0 {
		t.Fatalf("storm scheduled nothing: %+v", a)
	}
	// Amplification: total arrivals exceed fresh requests.
	if a.Arrived <= 300 {
		t.Fatalf("no amplification: arrived %d of 300 fresh", a.Arrived)
	}
	// Invariant: every arrival is served or rejected, storm included.
	if a.Served+a.Rejected != a.Arrived {
		t.Fatalf("accounting broke under the storm: served %d + rejected %d != arrived %d",
			a.Served, a.Rejected, a.Arrived)
	}
	// Without a storm plan the same config schedules nothing.
	st, _, err := Serve(overloadConfig(t, 5, 2.0, 0, Defense{}))
	if err != nil {
		t.Fatal(err)
	}
	if st.RetryScheduled != 0 || st.Retries != 0 {
		t.Fatalf("retries without a storm plan: %+v", st)
	}
}

func TestRetryBudgetCapsAmplification(t *testing.T) {
	open, _, err := Serve(overloadConfig(t, 5, 2.0, 0.9, Defense{}))
	if err != nil {
		t.Fatal(err)
	}
	capped, _, err := Serve(overloadConfig(t, 5, 2.0, 0.9, Defense{RetryBudget: 0.1}))
	if err != nil {
		t.Fatal(err)
	}
	if capped.RejectedBudget == 0 {
		t.Fatalf("budget never refused a retry: %+v", capped)
	}
	// Admitted retries are bounded by ratio × fresh + the burst cap.
	admitted := capped.Retries - capped.RejectedBudget
	if limit := int(0.1*300) + 10; admitted > limit {
		t.Fatalf("budget admitted %d retries, cap ~%d", admitted, limit)
	}
	// Budget-refused retries are never re-retried, so the storm total
	// shrinks versus the open loop.
	if open.Retries > 0 && capped.RetryScheduled >= open.RetryScheduled {
		t.Fatalf("budget did not shrink the storm: scheduled %d vs %d",
			capped.RetryScheduled, open.RetryScheduled)
	}
}

func TestAdaptiveLimitBoundsTail(t *testing.T) {
	off, _, err := Serve(overloadConfig(t, 9, 2.0, 0, Defense{}))
	if err != nil {
		t.Fatal(err)
	}
	on, _, err := Serve(overloadConfig(t, 9, 2.0, 0, Defense{
		AdaptiveAdmit: true, LatencyTarget: 100 * time.Millisecond,
	}))
	if err != nil {
		t.Fatal(err)
	}
	if on.RejectedOverload == 0 {
		t.Fatalf("limiter never engaged: %+v", on)
	}
	if on.Latency.P99() >= off.Latency.P99() {
		t.Fatalf("adaptive limit did not improve p99: %v vs %v", on.Latency.P99(), off.Latency.P99())
	}
	if p99 := on.Latency.P99(); p99 > 300*time.Millisecond {
		t.Fatalf("defended p99 %v past the client deadline", p99)
	}
}

func TestPrioritySheddingProtectsPaid(t *testing.T) {
	st, _, err := Serve(overloadConfig(t, 13, 2.0, 0, Defense{PriorityShed: true}))
	if err != nil {
		t.Fatal(err)
	}
	if st.ShedBatch == 0 {
		t.Fatalf("no batch work shed under 2x overload: %+v", st)
	}
	if st.ShedBatch <= st.ShedPaid {
		t.Fatalf("batch not shed first: batch %d, paid %d", st.ShedBatch, st.ShedPaid)
	}
}

func TestBrownoutDegradesUnderLoad(t *testing.T) {
	st, _, err := Serve(overloadConfig(t, 17, 2.0, 0, Defense{Brownout: true}))
	if err != nil {
		t.Fatal(err)
	}
	if st.DegradedServed == 0 {
		t.Fatalf("brownout never served degraded: %+v", st)
	}
	if st.BrownoutTime <= 0 {
		t.Fatalf("no brownout time recorded: %+v", st)
	}
	if st.StateChanges == 0 {
		t.Fatal("state ladder never moved")
	}
	// The brownout image is a strict degradation of the original.
	orig := guest.Daytime()
	img := brownoutImage(orig)
	if img.MemBytes >= orig.MemBytes || img.SizeBytes >= orig.SizeBytes {
		t.Fatalf("brownout image not smaller: %+v", img)
	}
	if img.StoreOpsBoot != 0 {
		t.Fatal("brownout image still does boot store chatter")
	}
	if img.Name == orig.Name {
		t.Fatal("brownout image shares the original's name (pool flavor collision)")
	}
}

func TestServeMemPressureTypedRejects(t *testing.T) {
	cap, err := EstimateCapacity(VMPerRequest, guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	st, h, err := Serve(Config{
		Mode:     VMPerRequest,
		Seed:     3,
		Arrivals: NewPoisson(31, cap*0.5),
		Requests: 400,
		FaultPlan: faults.Plan{
			Rate: 0.05, Kinds: []faults.Kind{faults.KindMemPressure},
		},
	})
	if err != nil {
		t.Fatalf("pressure aborted the run instead of rejecting: %v", err)
	}
	if st.RejectedCapacity == 0 {
		t.Fatalf("no capacity rejects under mem pressure: %+v", st)
	}
	if st.Served == 0 {
		t.Fatal("pressure episodes starved the whole run")
	}
	if v := toolstack.Fsck(h.Env); len(v) > 0 {
		t.Fatalf("host not fsck-clean after pressure rollbacks: %v", v)
	}
}

func TestServeStoreQuotaTypedRejects(t *testing.T) {
	for _, mode := range []Mode{VMPerRequest, VMPerRequestXL} {
		cap, err := EstimateCapacity(mode, guest.Daytime())
		if err != nil {
			t.Fatal(err)
		}
		st, h, err := Serve(Config{
			Mode:     mode,
			Seed:     3,
			Arrivals: NewPoisson(37, cap*0.5),
			Requests: 200,
			FaultPlan: faults.Plan{
				Rate: 0.1, Kinds: []faults.Kind{faults.KindStoreQuota},
			},
		})
		if err != nil {
			t.Fatalf("%v: quota exhaustion aborted the run: %v", mode, err)
		}
		if st.RejectedQuota == 0 {
			t.Fatalf("%v: no quota rejects: %+v", mode, st)
		}
		if st.Served == 0 {
			t.Fatalf("%v: quota faults starved the run", mode)
		}
		if v := toolstack.Fsck(h.Env); len(v) > 0 {
			t.Fatalf("%v: host not fsck-clean after quota rollbacks: %v", mode, v)
		}
	}
}

// TestStatsMergeFleetProperty (satellite): folding per-host stats into
// a fleet aggregate is a sum on every new counter, index-wise on phase
// buckets, and lossless on the histogram including its timeout-range
// samples.
func TestStatsMergeFleetProperty(t *testing.T) {
	mk := func(seed uint64) *Stats {
		st, _, err := Serve(Config{
			Mode:        VMPerRequest,
			Seed:        seed,
			Arrivals:    NewPoisson(seed, 150),
			Requests:    120,
			Timeout:     10 * time.Millisecond, // force timeout-bucket traffic
			FaultPlan:   stormPlan(0.5),
			PhaseBounds: []time.Duration{300 * time.Millisecond, 600 * time.Millisecond},
			Defense: Defense{
				AdaptiveAdmit: true, RetryBudget: 0.3,
				PriorityShed: true, Brownout: true,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	hosts := []*Stats{mk(1), mk(2), mk(3)}
	var fleet Stats
	for _, h := range hosts {
		fleet.Merge(h)
	}
	sum := func(f func(*Stats) int) int {
		n := 0
		for _, h := range hosts {
			n += f(h)
		}
		return n
	}
	checks := map[string]func(*Stats) int{
		"arrived":   func(s *Stats) int { return s.Arrived },
		"served":    func(s *Stats) int { return s.Served },
		"timedout":  func(s *Stats) int { return s.TimedOut },
		"rejected":  func(s *Stats) int { return s.Rejected },
		"overload":  func(s *Stats) int { return s.RejectedOverload },
		"budget":    func(s *Stats) int { return s.RejectedBudget },
		"retries":   func(s *Stats) int { return s.Retries },
		"scheduled": func(s *Stats) int { return s.RetryScheduled },
		"shedpaid":  func(s *Stats) int { return s.ShedPaid },
		"shedbatch": func(s *Stats) int { return s.ShedBatch },
		"degraded":  func(s *Stats) int { return s.DegradedServed },
		"changes":   func(s *Stats) int { return s.StateChanges },
		"brownout":  func(s *Stats) int { return int(s.BrownoutTime) },
		"shedding":  func(s *Stats) int { return int(s.SheddingTime) },
	}
	for name, f := range checks {
		if got, want := f(&fleet), sum(f); got != want {
			t.Fatalf("fleet %s = %d, want %d", name, got, want)
		}
	}
	// The timeout-bucket leg is only meaningful if timeouts happened.
	if sum(func(s *Stats) int { return s.TimedOut }) == 0 {
		t.Fatal("no timeouts generated; tighten the test's Timeout")
	}
	if fleet.Latency.Count() != hosts[0].Latency.Count()+hosts[1].Latency.Count()+hosts[2].Latency.Count() {
		t.Fatal("histogram merge lost samples")
	}
	// Quantiles of the merged histogram bracket the per-host extremes.
	lo, hi := hosts[0].Latency.P99(), hosts[0].Latency.P99()
	for _, h := range hosts[1:] {
		if p := h.Latency.P99(); p < lo {
			lo = p
		}
		if p := h.Latency.P99(); p > hi {
			hi = p
		}
	}
	if p := fleet.Latency.P99(); p < lo || p > hi {
		t.Fatalf("merged p99 %v outside host range [%v, %v]", p, lo, hi)
	}
	// Phase buckets merge index-wise.
	if len(fleet.Phases) != 3 {
		t.Fatalf("fleet has %d phases, want 3", len(fleet.Phases))
	}
	for i := range fleet.Phases {
		want := 0
		for _, h := range hosts {
			want += h.Phases[i].Arrived
		}
		if fleet.Phases[i].Arrived != want {
			t.Fatalf("phase %d arrived %d, want %d", i, fleet.Phases[i].Arrived, want)
		}
	}
}

func TestVMXLModeSlower(t *testing.T) {
	capChaos, err := EstimateCapacity(VMPerRequest, guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	capXL, err := EstimateCapacity(VMPerRequestXL, guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	if capXL*2 >= capChaos {
		t.Fatalf("xl capacity %.1f not well under chaos %.1f", capXL, capChaos)
	}
	st, h, err := Serve(Config{
		Mode: VMPerRequestXL, Seed: 2,
		Arrivals: NewPoisson(5, capXL*0.5), Requests: 40,
		Timeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Served == 0 {
		t.Fatal("vm-xl served nothing")
	}
	if st.Mode.String() != "vm-xl" {
		t.Fatalf("mode name %q", st.Mode)
	}
	if v := toolstack.Fsck(h.Env); len(v) > 0 {
		t.Fatalf("vm-xl host not fsck-clean: %v", v)
	}
}
