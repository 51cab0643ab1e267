package experiments

import (
	"fmt"
	"time"

	"lightvm/internal/metrics"
	"lightvm/internal/toolstack"
	"lightvm/internal/traffic"
)

func init() {
	register("ext-serve", extServe)
}

// serveModes is the figure's serving-backend sweep, in row order.
var serveModes = []traffic.Mode{
	traffic.VMPerRequest, traffic.PoolReactive, traffic.PoolPredictive,
	traffic.Container, traffic.Process,
}

// servePatterns is the arrival-pattern sweep, in row order.
var servePatterns = []string{"poisson", "burst", "flash"}

// extServe — open-loop traffic serving (extension; the quantitative
// version of §7.2's just-in-time instantiation). A nominal 512-host
// fleet serves 10k and 100k aggregate RPS with one unikernel per
// request: arrivals are generated open-loop on the virtual clock
// (Poisson, synchronized-burst MMPP, and a replayed flash-crowd
// trace), each request cold-boots or pool-takes a real Daytime guest,
// gets its answer from the actual app, and is torn down. Per-request
// containers and fork/exec processes are the baselines. Hosts are
// independent, so the figure simulates a deterministic sample of the
// fleet per cell and merges the per-host histograms; rates are
// intensive (per-host), so the sample is unbiased — the note records
// the sample size.
//
// Columns: latency quantiles from the fixed-bucket histograms,
// timeout rate (served past the 750ms deadline), reject rate (shed by
// admission control at 2s of control-plane backlog, or refused by the
// backend — the container memory wall), and mean shells kept warm.
//
// The generator enforces the headline ordering on the boot-dominated
// cells (10k RPS, poisson/burst): warm-pool p99 < VM-per-request
// p99 < container p99. The flash cells deliberately push the cold
// path past saturation, so they are reported, not gated.
func extServe(o Options) (Result, error) {
	const fleetHosts = 512
	hostsSim := o.scaled(8, 2)
	reqPerHost := o.scaled(1200, 60)
	rates := []float64{10_000, 100_000} // aggregate fleet RPS

	type cell struct{ mi, pi, ri int }
	var cells []cell
	for _, ri := range []int{0, 1} {
		for pi := range servePatterns {
			for mi := range serveModes {
				cells = append(cells, cell{mi, pi, ri})
			}
		}
	}
	merged, virtMS, err := o.fleet(len(cells), hostsSim, func(ci int) string {
		c := cells[ci]
		return fmt.Sprintf("ext-serve %s/%s/%.0f", serveModes[c.mi], servePatterns[c.pi], rates[c.ri])
	}, func(ci int, base, hseed uint64) traffic.Config {
		c := cells[ci]
		perHost := rates[c.ri] / fleetHosts
		var arr traffic.Arrivals
		switch servePatterns[c.pi] {
		case "burst":
			// One modulation seed per cell: every host in the fleet
			// bursts at the same virtual times.
			arr = traffic.NewMMPP(base+13, hseed, perHost)
		case "flash":
			arr = traffic.FlashTrace(hseed, perHost, reqPerHost)
		default:
			arr = traffic.NewPoisson(hseed, perHost)
		}
		return traffic.Config{
			Mode:       serveModes[c.mi],
			Seed:       hseed,
			Arrivals:   arr,
			Requests:   reqPerHost,
			MaxBacklog: 2 * time.Second,
			Timeout:    750 * time.Millisecond,
			Scaler: toolstack.AutoscalerConfig{
				Min: 4, Max: 64, Horizon: 100 * time.Millisecond,
			},
		}
	})
	if err != nil {
		return Result{}, err
	}

	t := metrics.NewTable("Extension: open-loop serving — per-request unikernels vs warm pools vs containers vs processes",
		"mode", "pattern", "fleet_krps",
		"p50_ms", "p99_ms", "p999_ms",
		"timeout_pct", "reject_pct", "warm_avg")
	p99 := make(map[cell]time.Duration, len(cells))
	for ci, c := range cells {
		m := merged[ci]
		warm := 0.0
		if len(m.Warm) > 0 {
			sum := 0
			for _, w := range m.Warm {
				sum += w
			}
			warm = float64(sum) / float64(len(m.Warm))
		}
		p99[c] = m.Latency.P99()
		t.AddRow(float64(c.mi), float64(c.pi), rates[c.ri]/1000,
			ms(m.Latency.P50()), ms(m.Latency.P99()), ms(m.Latency.P999()),
			100*m.TimeoutRate(), 100*m.RejectRate(), warm)
	}

	// Headline ordering on the boot-dominated cells.
	for pi, pat := range servePatterns {
		if pat == "flash" {
			continue
		}
		vm := p99[cell{0, pi, 0}]
		pool := p99[cell{1, pi, 0}]
		pred := p99[cell{2, pi, 0}]
		ctr := p99[cell{3, pi, 0}]
		if pool >= vm || pred >= vm || vm >= ctr {
			return Result{}, fmt.Errorf(
				"ext-serve: p99 ordering broken at 10k/%s: pool %v / predictive %v vs vm %v vs container %v",
				pat, pool, pred, vm, ctr)
		}
	}

	// Shells-warm over time for the predictive burst cell: the
	// autoscaler following the synchronized bursts.
	for ci, c := range cells {
		if c.mi == 2 && servePatterns[c.pi] == "burst" && c.ri == 0 {
			w := merged[ci].Warm
			if len(w) > 8 {
				w = w[:8]
			}
			t.Note("predictive shells-warm over time (10k burst, fleet sample): %v", w)
			break
		}
	}
	t.Note("modes: 0=vm-per-request (chaos+xenstore, cold) 1=pool-reactive 2=pool-predictive (split shells) 3=container 4=process")
	t.Note("patterns: 0=poisson 1=burst (MMPP, fleet-synchronized) 2=flash (replayed trace, 4x crowd mid-run)")
	t.Note("fleet: %d hosts nominal, %d simulated per cell, %d requests/host; admission sheds past 2s backlog; client deadline 750ms",
		fleetHosts, hostsSim, reqPerHost)
	t.Note("per-request guests are real Daytime unikernels (boot stripped to guest cores, app answers verified); destruction rides the control plane")
	return Result{
		Paper:     "extension: JIT unikernel serving beats containers at the tail; warm pools beat cold boots",
		Table:     t,
		VirtualMS: virtMS,
		Serving:   summarizeServing(merged),
	}, nil
}
