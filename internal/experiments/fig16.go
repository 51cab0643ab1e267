package experiments

import (
	"fmt"
	"time"

	"lightvm/internal/apps"
	"lightvm/internal/core"
	"lightvm/internal/costs"
	"lightvm/internal/guest"
	"lightvm/internal/metrics"
	"lightvm/internal/netstack"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
	"lightvm/internal/tlsterm"
	"lightvm/internal/toolstack"
)

func init() {
	register("fig16a", fig16a)
	register("fig16b", fig16b)
	register("fig16c", fig16c)
}

// fig16a — personal firewalls: 1000 ClickOS firewall VMs on the
// 14-core Xeon, one 10 Mbps iperf client each plus one ping client.
//
// Throughput: each client demands 10 Mbps; the box's forwarding
// capacity saturates as C(N) = Cmax·N/(N+K) (per-VM scheduling
// overhead eats into the ideal linear scaling; Cmax/K calibrated to
// the paper's 3.25 Gbps @500 and 4.0 Gbps @1000).
// Latency: the Xen scheduler round-robins through the active VMs, so
// the ping VM waits ~N timeslices (§7.1's own explanation of the
// 60 ms @1000 figure).
func fig16a(o Options) (Result, error) {
	t := metrics.NewTable("Figure 16a: personal firewalls — total throughput and ping RTT",
		"n", "throughput_gbps", "rtt_ms")
	const cmaxGbps, kSat = 5.2, 300.0
	// Every subscriber's flows reach the same server and face the same
	// blocklisted source.
	dst, err := apps.ParseIPv4("198.51.100.10")
	if err != nil {
		return Result{}, err
	}
	bad, err := apps.ParseIPv4("203.0.113.66")
	if err != nil {
		return Result{}, err
	}
	var fwDenied uint64
	pop, err := o.sweep(o.scaled(1000, 50), curve{machine: sched.Xeon14, cols: 2, setup: func(h *core.Host) (step, error) {
		if err := h.EnsureFlavor(guest.ClickOSFirewall(), toolstack.ModeLightVM); err != nil {
			return nil, err
		}
		drv := h.Driver(toolstack.ModeLightVM)
		return func(i int, rec []float64) error {
			if err := h.Replenish(); err != nil {
				return err
			}
			if _, err := drv.Create(fmt.Sprintf("fw%d", i), guest.ClickOSFirewall()); err != nil {
				return err
			}
			// Each subscriber's firewall filters its own flow.
			fw, err := apps.NewPersonalFirewall(fmt.Sprintf("10.%d.%d.0/24", i/250, i%250), []string{"203.0.113.0/24"})
			if err != nil {
				return err
			}
			src, err := apps.ParseIPv4(fmt.Sprintf("10.%d.%d.7", i/250, i%250))
			if err != nil {
				return err
			}
			if fw.Filter(src, dst, 443) != apps.Allow {
				return fmt.Errorf("fig16a: subscriber flow denied")
			}
			if fw.Filter(bad, src, 80) != apps.Deny {
				return fmt.Errorf("fig16a: blocklist flow allowed")
			}
			fwDenied += fw.Denied
			if rec != nil {
				fi := float64(i)
				demand := 10 * fi / 1000 // Gbps
				capacity := cmaxGbps * fi / (fi + kSat)
				rec[0] = min(demand, capacity)
				rec[1] = 0.2 + fi*float64(costs.TimesliceRR)/float64(time.Millisecond)
			}
			return nil
		}, nil
	}})
	if err != nil {
		return Result{}, err
	}
	pop.addRows(t)
	t.Note("paper: linear to 2.5Gbps @250 clients; 6.5Mbps/user @500 (3.25G), 4Mbps/user @1000 (4.0G); RTT ~60ms @1000")
	t.Note("rule engine exercised: %d blocklist packets denied across the fleet", fwDenied)
	return Result{Paper: "one machine can firewall a full LTE cell (3.3 Gbps max)", Table: t, VirtualMS: pop.virtMS}, nil
}

// fig16b — just-in-time service instantiation: each client sends one
// ping; the first packet boots a fresh VM which then answers. The
// bridge queues packets for still-booting VMs; past its backlog limit
// it drops (mostly ARP), and those clients pay a 1 s retry — the long
// tail at the 10 ms arrival rate.
func fig16b(o Options) (Result, error) {
	clients := o.scaled(1000, 50)
	t := metrics.NewTable("Figure 16b: JIT instantiation — ping RTT CDF per arrival rate",
		"percentile", "rtt_10ms", "rtt_25ms", "rtt_50ms", "rtt_100ms")
	rates := []time.Duration{10 * time.Millisecond, 25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond}
	cdfs := make([][]metrics.CDFPoint, len(rates))
	// Each arrival rate replays on its own host/clock, as a cell.
	virtMS, err := o.cells(len(rates), func(ri int) (float64, error) {
		inter := rates[ri]
		h, err := core.NewHost(sched.Xeon14, o.Seed+uint64(ri))
		if err != nil {
			return 0, err
		}
		// High arrival rates keep the shell pool warm (the daemon gets
		// scheduled often enough); at low rates the pool covers demand
		// trivially. Either way LightVM boots the service VM.
		if err := h.EnsureFlavor(guest.ClickOSFirewall(), toolstack.ModeLightVM); err != nil {
			return 0, err
		}
		drv := h.Driver(toolstack.ModeLightVM)
		// The toolstack's Dom0 work serializes across requests, but
		// the guest-side boot runs on the 13 guest cores in parallel.
		// We therefore create VMs with their boot work stripped and
		// account the ClickOS boot (≈8 ms) per client on top.
		img := guest.ClickOSFirewall()
		bootWork := img.BootWork
		img.BootWork = time.Microsecond
		var rtts metrics.Series
		var pending []*toolstack.VM
		for k := 0; k < clients; k++ {
			reqArrive := sim.Time(k) * sim.Time(inter)
			if h.Clock.Now() < reqArrive {
				// The chaos daemon refills the shell pool in the idle
				// gap between arrivals; under sustained 10 ms arrivals
				// there is no gap, the pool drains, and creations fall
				// back to inline prepares.
				if err := h.Replenish(); err != nil {
					return 0, err
				}
				h.Clock.AdvanceTo(reqArrive)
			}
			vm, err := drv.Create(fmt.Sprintf("jit%d-%d", ri, k), img)
			if err != nil {
				return 0, err
			}
			// Ready once the (parallel) guest boot completes.
			ready := h.Clock.Now().Add(bootWork)
			rtt := ready.Sub(reqArrive) + 2*costs.BridgeForward + costs.PingProcess
			// At the 10 ms arrival rate the Linux bridge is overloaded
			// by the churn's broadcast (ARP) traffic and drops a small
			// fraction of packets (§7.2); those clients pay the ARP
			// retry timeout — the long tail in the CDF.
			ratePerSec := float64(time.Second) / float64(inter)
			if over := ratePerSec - 60; over > 0 {
				pDrop := 0.08 * over / ratePerSec
				if h.RNG.Float64() < pDrop {
					rtt += time.Second
				}
			}
			rtts.AddDuration(rtt)
			// Idle services are torn down 2s after their client goes
			// quiet — off the arrival path on a real host, so
			// destruction happens after the measurement window here
			// (the single-threaded clock cannot overlap it with
			// arrivals). 1000 firewall VMs fit in ~8 GB.
			pending = append(pending, vm)
		}
		for _, vm := range pending {
			if err := drv.Destroy(vm); err != nil {
				return 0, err
			}
		}
		cdfs[ri] = rtts.CDF()
		return h.Clock.Now().Milliseconds(), nil
	})
	if err != nil {
		return Result{}, err
	}
	// Emit aligned percentile rows.
	for p := 1; p <= 100; p++ {
		row := []float64{float64(p) / 100}
		for _, cdf := range cdfs {
			idx := (p*len(cdf))/100 - 1
			if idx < 0 {
				idx = 0
			}
			row = append(row, cdf[idx].Value)
		}
		t.AddRow(row[0], row[1], row[2], row[3], row[4])
	}
	t.Note("paper @25ms inter-arrival: median 13ms, p90 20ms; @10ms the bridge drops ARPs and some pings time out (long tail)")
	return Result{Paper: "JIT VM boots answer pings in ~13ms median; overload only at 10ms arrivals", Table: t, VirtualMS: virtMS}, nil
}

// fig16c — TLS termination throughput for bare-metal processes, Tinyx
// VMs and axtls/lwip unikernels, up to 1000 instances on 14 cores.
func fig16c(o Options) (Result, error) {
	n := o.scaled(1000, 50)
	points := o.samplePoints(n)
	// Exercise the real handshake machine once per stack so the cost
	// model and the state machine stay in agreement.
	h, err := core.NewHost(sched.Xeon14, o.Seed)
	if err != nil {
		return Result{}, err
	}
	linux := tlsterm.New(h.Clock, netstack.LinuxTCP)
	lwip := tlsterm.New(h.Clock, netstack.Lwip)
	costLinux, err := linux.ServeRequest()
	if err != nil {
		return Result{}, err
	}
	costLwip, err := lwip.ServeRequest()
	if err != nil {
		return Result{}, err
	}

	cores := float64(sched.Xeon14.Cores - sched.Xeon14.Dom0Cores)
	t := metrics.NewTable("Figure 16c: TLS termination throughput (Kreq/s) vs #instances",
		"n", "bare_metal_krps", "tinyx_krps", "unikernel_krps")
	tput := func(nInst int, perReq time.Duration, virtOverhead float64) float64 {
		perInstance := 1 / perReq.Seconds() / (1 + virtOverhead)
		capacity := cores / perReq.Seconds() / (1 + virtOverhead)
		v := float64(nInst) * perInstance
		if v > capacity {
			v = capacity
		}
		return v / 1000
	}
	for _, p := range points {
		t.AddRow(float64(p),
			tput(p, costLinux, 0),    // bare metal
			tput(p, costLinux, 0.03), // Tinyx: tiny virtualization tax
			tput(p, costLwip, 0.03))  // unikernel: lwip factor dominates
	}
	t.Note("paper: ~1400 req/s plateau for bare metal and Tinyx (1024-bit RSA), unikernel ~1/5 of that (lwip)")
	return Result{Paper: "Tinyx ≈ bare metal ≈1400 req/s; unikernel ~20% of that", Table: t}, nil
}
