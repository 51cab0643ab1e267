package toolstack

import (
	"testing"
	"time"

	"lightvm/internal/guest"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
)

func newAutoscaleEnv(t *testing.T) *Env {
	t.Helper()
	e := NewEnv(sim.NewClock(), sched.Machine{Name: "scale", Cores: 8, Dom0Cores: 1, MemoryGB: 32})
	e.Pool.Register(guest.Daytime(), true)
	return e
}

// TestSetTargetClampsNegative: the depth floor is part of the "target
// never negative" invariant — a panicking replenish loop is the
// failure mode otherwise.
func TestSetTargetClampsNegative(t *testing.T) {
	e := newAutoscaleEnv(t)
	e.Pool.SetTarget(-5)
	if got := e.Pool.Target(); got != 0 {
		t.Fatalf("Target after SetTarget(-5) = %d, want 0", got)
	}
	if err := e.Pool.Replenish(); err != nil {
		t.Fatal(err)
	}
}

// TestAutoscalerTargetNeverNegative drives both policies through
// adversarial configs and tick streams and asserts the applied target
// stays non-negative throughout.
func TestAutoscalerTargetNeverNegative(t *testing.T) {
	for _, policy := range []AutoscalePolicy{ScaleReactive, ScalePredictive} {
		e := newAutoscaleEnv(t)
		a := NewAutoscaler(e.Pool, AutoscalerConfig{
			Policy: policy, Min: -3, Max: -1,
		})
		now := sim.Time(0)
		for i, arrivals := range []int{0, 5, 0, 1000, 0, 0, 7, 0} {
			// Every other tick is zero-width to hit the pending path.
			if i%2 == 0 {
				now = now.Add(3 * time.Millisecond)
			}
			if err := a.Tick(now, arrivals); err != nil {
				t.Fatal(err)
			}
			if got := e.Pool.Target(); got < 0 {
				t.Fatalf("%v: target %d went negative at tick %d", policy, got, i)
			}
		}
	}
}

// TestAutoscalerPredictiveConverges: under a constant arrival rate the
// EWMA estimate settles and the warm-shell count converges to the
// steady-state target ceil(rate·horizon·(1+headroom)) — and decays
// back to Min when the traffic stops.
func TestAutoscalerPredictiveConverges(t *testing.T) {
	e := newAutoscaleEnv(t)
	a := NewAutoscaler(e.Pool, AutoscalerConfig{
		Policy: ScalePredictive, Min: 2, Max: 64,
		Horizon: 20 * time.Millisecond,
	})
	// 1000 req/s: 10 arrivals per 10ms tick → steady-state target
	// ceil(1000 · 0.020 · 1.25) = 25.
	const want = 25
	now := sim.Time(0)
	var last int
	for i := 0; i < 60; i++ {
		now = now.Add(10 * time.Millisecond)
		if err := a.Tick(now, 10); err != nil {
			t.Fatal(err)
		}
		last = e.Pool.Target()
		if i > 30 && last != want {
			t.Fatalf("tick %d: target %d has not converged to %d (rate %.1f)",
				i, last, want, a.Rate())
		}
	}
	if got := e.Pool.Available(guest.Daytime(), true); got != want {
		t.Fatalf("shells warm = %d, want steady-state %d", got, want)
	}
	// Traffic stops: the estimate decays and the target returns to Min.
	for i := 0; i < 80; i++ {
		now = now.Add(10 * time.Millisecond)
		if err := a.Tick(now, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.Pool.Target(); got != 2 {
		t.Fatalf("target after traffic stopped = %d, want Min=2", got)
	}
}

// TestAutoscalerReactiveHoldsDepth: the reactive policy is the fixed
// configurable depth from §5.2 — the target never moves off Min no
// matter what the arrival stream does.
func TestAutoscalerReactiveHoldsDepth(t *testing.T) {
	e := newAutoscaleEnv(t)
	a := NewAutoscaler(e.Pool, AutoscalerConfig{Policy: ScaleReactive, Min: 4})
	now := sim.Time(0)
	for i, arrivals := range []int{0, 1000, 0, 50000} {
		now = now.Add(time.Millisecond)
		if err := a.Tick(now, arrivals); err != nil {
			t.Fatal(err)
		}
		if got := e.Pool.Target(); got != 4 {
			t.Fatalf("tick %d: reactive target %d, want 4", i, got)
		}
	}
	if got := e.Pool.Available(guest.Daytime(), true); got != 4 {
		t.Fatalf("shells warm = %d, want 4", got)
	}
}

// TestAutoscalerNeverDoubleTakes: with the predictive autoscaler
// ticking between takes, and manual retargets followed by plain
// replenish beats in between, every successful Take returns a distinct
// shell backed by a distinct domain — the pool never hands the same
// shell out twice.
func TestAutoscalerNeverDoubleTakes(t *testing.T) {
	e := newAutoscaleEnv(t)
	// The noxs flavor: reap (how this test disposes of taken shells)
	// matches the daemon's own orphan cleanup on that path.
	img := guest.Daytime()
	e.Pool.Register(img, false)
	a := NewAutoscaler(e.Pool, AutoscalerConfig{
		Policy: ScalePredictive, Min: 1, Max: 16, Horizon: 10 * time.Millisecond,
	})
	var taken []*Shell
	take := func(n int) {
		for ; n > 0; n-- {
			if s := e.Pool.Take(img, false); s != nil {
				taken = append(taken, s)
			}
		}
	}
	for i := 1; i <= 50; i++ {
		if err := a.Tick(sim.Time(i)*sim.Time(5*time.Millisecond), 25); err != nil {
			t.Fatal(err)
		}
		take(2)
		e.Pool.SetTarget(i % 8)
		if err := e.Pool.Replenish(); err != nil {
			t.Fatal(err)
		}
		take(2)
	}
	if len(taken) == 0 {
		t.Fatal("no Take ever hit the pool")
	}

	seen := make(map[*Shell]bool)
	doms := make(map[int]bool)
	for _, s := range taken {
		if seen[s] {
			t.Fatalf("shell %p taken twice", s)
		}
		seen[s] = true
		if doms[int(s.Dom.ID)] {
			t.Fatalf("domain %d backs two taken shells", s.Dom.ID)
		}
		doms[int(s.Dom.ID)] = true
		if _, err := e.HV.Domain(s.Dom.ID); err != nil {
			t.Fatalf("taken shell dom %d: %v", s.Dom.ID, err)
		}
	}
	if st := e.Pool.Stats; st.Taken != len(taken) || st.Taken > st.Prepared {
		t.Fatalf("stats %+v inconsistent with %d shells actually taken", st, len(taken))
	}
	// Return everything so the host ends balanced: pool + nothing else.
	for _, s := range taken {
		e.Pool.reap(s)
	}
	if v := Fsck(e); len(v) > 0 {
		t.Fatalf("fsck violations after autoscaled churn: %v", v)
	}
}
