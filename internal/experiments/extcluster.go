package experiments

import (
	"fmt"
	"reflect"
	"time"

	"lightvm/internal/cluster"
	"lightvm/internal/guest"
	"lightvm/internal/metrics"
	"lightvm/internal/sched"
	"lightvm/internal/toolstack"
)

func init() {
	register("ext-cluster", extCluster)
}

// extClusterWorkerSweep is the default shard-count sweep: every run
// must render byte-identically at each count, and the figure verifies
// that in-run before reporting.
var extClusterWorkerSweep = []int{1, 2, 8}

// extCluster — datacenter-scale churn on the sharded engine (scaling
// extension; no paper figure). The paper runs its density and boot
// experiments on one machine; this figure asks what the same toolstack
// economics look like when the §7.1 scheduler is driving a fleet. At
// full scale it simulates 1,024 hosts (640 chaos members at 1,600
// unikernels each — 1,024,000 domains — plus 384 xl members at 64
// each, 24,576 more) as independent logical processes under one
// controller: arrival waves, live migrations, departures, and
// whole-machine failures recovered through heartbeat detection,
// fencing and re-placement.
//
// The second thing the figure demonstrates is the engine contract:
// host timelines execute concurrently between conservative
// synchronization windows, yet the schedule is a pure function of the
// seed. Unless Options.Shards pins one worker count, the run is
// repeated at 1, 2 and 8 workers and the reports are required to be
// deeply equal — the published table is byte-identical at every shard
// count by construction, not by luck.
func extCluster(o Options) (Result, error) {
	pools := []cluster.HostPool{
		{Name: "chaos", Mode: toolstack.ModeLightVM,
			Hosts: o.scaled(640, 4), VMs: o.scaled(1_024_000, 64), Image: guest.Daytime()},
		// xl's density is capped by its control plane, not by memory:
		// at ~0.5s per create, 64 guests per host is already ~30s of
		// serialized toolstack work — the most the drain window can
		// absorb. The 25x density gap against chaos is the figure's
		// point (cf. Fig. 9's per-host creation-time curves).
		{Name: "xl", Mode: toolstack.ModeXL,
			Hosts: o.scaled(384, 2), VMs: o.scaled(24_576, 16), Image: guest.Daytime()},
	}
	spec := cluster.ChurnSpec{
		Waves:          4,
		WavePeriod:     2 * time.Second,
		MigratePerWave: o.scaled(200, 2),
		DepartPerWave:  o.scaled(100, 1),
		FailAt:         extClusterFailures(o.scaled(8, 1)),
		Drain:          60 * time.Second,
	}
	machine := sched.Machine{Name: "member", Cores: 4, Dom0Cores: 1, MemoryGB: 32}

	sweep := extClusterWorkerSweep
	if o.Shards > 0 {
		sweep = []int{o.Shards}
	}
	var first *cluster.ChurnReport
	for _, workers := range sweep {
		sc, err := cluster.NewSharded(cluster.ShardedConfig{
			Machine: machine, Workers: workers, Seed: o.Seed,
		}, pools)
		if err != nil {
			return Result{}, fmt.Errorf("ext-cluster workers=%d: %w", workers, err)
		}
		rep, err := sc.RunChurn(spec)
		if err != nil {
			return Result{}, fmt.Errorf("ext-cluster workers=%d: %w", workers, err)
		}
		if first == nil {
			first = rep
		} else if !reflect.DeepEqual(rep, first) {
			return Result{}, fmt.Errorf(
				"ext-cluster: workers=%d produced a different report than workers=%d — engine determinism broken",
				workers, sweep[0])
		}
	}

	// The run must converge: every surviving VM running, every
	// invariant intact. Saturation backpressure is reported, not fatal.
	if first.Unplaced > 0 {
		return Result{}, fmt.Errorf("ext-cluster: %d VMs unplaced at stop", first.Unplaced)
	}
	if first.FsckViolated > 0 {
		return Result{}, fmt.Errorf("ext-cluster: %d cross-layer fsck violations", first.FsckViolated)
	}

	t := metrics.NewTable("Extension: 1M-domain fleet churn on the sharded engine (xl vs chaos pools)",
		"hosts_failed", "failovers", "failover_p50_ms", "failover_p99_ms",
		"chaos_hosts", "chaos_placed", "chaos_created", "chaos_migrations",
		"chaos_create_p50_ms", "chaos_create_p99_ms", "chaos_migrate_p99_ms",
		"xl_hosts", "xl_placed", "xl_created", "xl_migrations",
		"xl_create_p50_ms", "xl_create_p99_ms", "xl_migrate_p99_ms")
	row := []float64{
		float64(first.HostsFailed), float64(first.Failovers),
		first.FailoverMS.Percentile(50), first.FailoverMS.Percentile(99),
	}
	for _, p := range first.Pools {
		row = append(row,
			float64(p.Hosts), float64(p.Placed), float64(p.Created), float64(p.Migrations),
			p.CreateMS.Percentile(50), p.CreateMS.Percentile(99), p.MigrateMS.Percentile(99))
	}
	t.AddRow(row...)
	t.Note("fleet: %d hosts, %d domains requested; engine: %d windows, %d events, %d messages",
		pools[0].Hosts+pools[1].Hosts, pools[0].VMs+pools[1].VMs,
		first.Engine.Windows, first.Engine.Events, first.Engine.Messages)
	t.Note("churn: %d waves, %d migrations/wave, %d departures/wave, %d host deaths; %d stale acks fenced, %d placements backpressured, %d heartbeat snapshots deferred",
		spec.Waves, spec.MigratePerWave, spec.DepartPerWave, len(spec.FailAt),
		first.Fenced, first.Saturated, first.DeferredBeats)
	// This note must not mention which worker counts actually ran:
	// the table is required to render byte-identically whether the
	// run was pinned (Options.Shards) or swept.
	t.Note("determinism: the schedule is a pure function of the seed; this table is byte-identical at every engine worker count")
	return Result{
		Paper:     "scaling extension: §7.1 scheduler over 1,024 sharded hosts, 1.3M domains (no paper figure)",
		Table:     t,
		VirtualMS: first.MakespanMS,
	}, nil
}

// extClusterFailures staggers n whole-machine deaths across the churn
// waves, starting after the first wave has landed.
func extClusterFailures(n int) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = 2500*time.Millisecond + time.Duration(i)*700*time.Millisecond
	}
	return out
}
