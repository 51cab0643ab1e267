package traffic

import (
	"testing"
	"time"

	"lightvm/internal/sim"
)

// drain pulls n gaps from an arrival process.
func drain(a Arrivals, n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = a.Next()
	}
	return out
}

func TestPoissonDeterministic(t *testing.T) {
	a := drain(NewPoisson(42, 1000), 2000)
	b := drain(NewPoisson(42, 1000), 2000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("gap %d: same seed diverged: %v vs %v", i, a[i], b[i])
		}
	}
	c := drain(NewPoisson(43, 1000), 2000)
	same := 0
	for i := range a {
		if a[i] == c[i] {
			same++
		}
	}
	if same > len(a)/10 {
		t.Fatalf("different seeds produced %d/%d identical gaps", same, len(a))
	}
}

func TestPoissonMeanRate(t *testing.T) {
	const rate = 500.0
	gaps := drain(NewPoisson(7, rate), 20000)
	var sum time.Duration
	for _, g := range gaps {
		if g < 0 {
			t.Fatalf("negative gap %v", g)
		}
		sum += g
	}
	mean := sum / time.Duration(len(gaps))
	want := meanGap(rate)
	if mean < want*9/10 || mean > want*11/10 {
		t.Fatalf("mean gap %v, want within 10%% of %v", mean, want)
	}
}

// modChainRef independently replays the MMPP dwell chain for a
// modulation seed: flip times are cumulative exponential dwells with
// the state (and therefore the dwell mean) alternating calm/burst.
func modChainRef(modSeed uint64, horizon sim.Time) []sim.Time {
	rng := sim.NewRNG(modSeed)
	var flips []sim.Time
	at := sim.Time(rng.Exp(400 * time.Millisecond))
	burst := false
	for at < horizon {
		flips = append(flips, at)
		burst = !burst
		dwell := 400 * time.Millisecond
		if burst {
			dwell = 100 * time.Millisecond
		}
		at = at.Add(rng.Exp(dwell))
	}
	return flips
}

// TestMMPPSharedModulation: every MMPP sharing a modSeed sees the
// burst windows at the same virtual times, regardless of its gap seed
// — the property the fleet-synchronized burst cells depend on. Each
// instance's state at any arrival must equal the parity of reference
// flips at or before that arrival.
func TestMMPPSharedModulation(t *testing.T) {
	const modSeed = 99
	for _, gapSeed := range []uint64{1, 2, 77} {
		m := NewMMPP(modSeed, gapSeed, 1000)
		for i := 0; i < 5000; i++ {
			m.Next()
			flips := 0
			ref := sim.NewRNG(modSeed)
			at := sim.Time(ref.Exp(400 * time.Millisecond))
			burst := false
			for at <= m.cursor {
				flips++
				burst = !burst
				dwell := 400 * time.Millisecond
				if burst {
					dwell = 100 * time.Millisecond
				}
				at = at.Add(ref.Exp(dwell))
			}
			if m.burst != (flips%2 == 1) {
				t.Fatalf("gapSeed %d arrival %d at %v: state %v, reference chain says %v (%d flips)",
					gapSeed, i, m.cursor, m.burst, flips%2 == 1, flips)
			}
		}
	}
}

// TestMMPPBurstRate: arrivals inside burst windows come measurably
// faster than calm ones (6x mean-gap ratio by construction).
func TestMMPPBurstRate(t *testing.T) {
	m := NewMMPP(5, 6, 1000)
	var calmSum, burstSum time.Duration
	var calmN, burstN int
	for i := 0; i < 50000; i++ {
		wasBurst := m.burst
		g := m.Next()
		if wasBurst {
			burstSum += g
			burstN++
		} else {
			calmSum += g
			calmN++
		}
	}
	if calmN == 0 || burstN == 0 {
		t.Fatalf("never visited both states: calm %d burst %d", calmN, burstN)
	}
	calmMean := float64(calmSum) / float64(calmN)
	burstMean := float64(burstSum) / float64(burstN)
	if ratio := calmMean / burstMean; ratio < 4 || ratio > 8 {
		t.Fatalf("calm/burst mean-gap ratio %.2f, want ~6", ratio)
	}
}

func TestTraceReplayCycles(t *testing.T) {
	gaps := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond}
	tr := &Trace{gaps: gaps}
	for i := 0; i < 10; i++ {
		if got, want := tr.Next(), gaps[i%3]; got != want {
			t.Fatalf("replay %d: got %v want %v", i, got, want)
		}
	}
}

func TestFlashTraceShape(t *testing.T) {
	const n = 5000
	a := FlashTrace(11, 1000, n)
	b := FlashTrace(11, 1000, n)
	var edgeSum, crowdSum time.Duration
	var edgeN, crowdN int
	for i := 0; i < n; i++ {
		ga, gb := a.Next(), b.Next()
		if ga != gb {
			t.Fatalf("gap %d: same seed diverged: %v vs %v", i, ga, gb)
		}
		if i >= 2*n/5 && i < 3*n/5 {
			crowdSum += ga
			crowdN++
		} else {
			edgeSum += ga
			edgeN++
		}
	}
	edgeMean := float64(edgeSum) / float64(edgeN)
	crowdMean := float64(crowdSum) / float64(crowdN)
	// Baseline 0.7x vs crowd 4x nominal: mean-gap ratio ~5.7.
	if ratio := edgeMean / crowdMean; ratio < 4 || ratio > 8 {
		t.Fatalf("edge/crowd mean-gap ratio %.2f, want ~5.7", ratio)
	}
}

// The generators run once per simulated request; none may allocate.
func TestArrivalNextAllocs(t *testing.T) {
	procs := map[string]Arrivals{
		"poisson": NewPoisson(1, 10000),
		"mmpp":    NewMMPP(1, 2, 10000),
		"trace":   FlashTrace(1, 10000, 256),
	}
	for name, p := range procs {
		if allocs := testing.AllocsPerRun(1000, func() { p.Next() }); allocs != 0 {
			t.Errorf("%s: %v allocs/op in Next, want 0", name, allocs)
		}
	}
}

func BenchmarkArrivalNext(b *testing.B) {
	b.Run("poisson", func(b *testing.B) {
		p := NewPoisson(1, 10000)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p.Next()
		}
	})
	b.Run("mmpp", func(b *testing.B) {
		m := NewMMPP(1, 2, 10000)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			m.Next()
		}
	})
	b.Run("trace", func(b *testing.B) {
		tr := FlashTrace(1, 10000, 4096)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			tr.Next()
		}
	})
}
