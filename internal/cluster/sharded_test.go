package cluster

import (
	"reflect"
	"testing"
	"time"

	"lightvm/internal/guest"
	"lightvm/internal/sched"
	"lightvm/internal/toolstack"
)

// testMachine is a member of the sharded fleet in these tests.
var testMachine = sched.Machine{Name: "member", Cores: 4, Dom0Cores: 1, MemoryGB: 32}

func testPools() []HostPool {
	return []HostPool{
		{Name: "chaos", Mode: toolstack.ModeLightVM, Hosts: 4, VMs: 120, Image: guest.Daytime()},
		{Name: "xl", Mode: toolstack.ModeXL, Hosts: 2, VMs: 24, Image: guest.Daytime()},
	}
}

func testSpec() ChurnSpec {
	return ChurnSpec{
		Waves:          3,
		WavePeriod:     2 * time.Second,
		MigratePerWave: 2,
		DepartPerWave:  1,
		FailAt:         []time.Duration{3 * time.Second},
		Drain:          30 * time.Second,
	}
}

func runChurn(t *testing.T, workers int, spec ChurnSpec) *ChurnReport {
	t.Helper()
	sc, err := NewSharded(ShardedConfig{Machine: testMachine, Workers: workers, Seed: 42}, testPools())
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	rep, err := sc.RunChurn(spec)
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	return rep
}

// TestShardedChurnDeterministicAcrossWorkers is the core contract of
// the sharded cluster: the worker count is a wall-clock knob only. The
// full report — per-VM latency series, failover timings, engine window
// and message counts, makespan — must be identical at 1, 2 and 8
// workers.
func TestShardedChurnDeterministicAcrossWorkers(t *testing.T) {
	spec := testSpec()
	base := runChurn(t, 1, spec)
	for _, workers := range []int{2, 8} {
		rep := runChurn(t, workers, spec)
		if !reflect.DeepEqual(base, rep) {
			t.Errorf("workers=%d diverged from workers=1:\n  w1: %+v\n  w%d: %+v",
				workers, base, workers, rep)
		}
	}
}

// TestShardedChurnOutcome checks the workload actually exercised the
// protocol: placements landed, migrations and departures happened, the
// injected host death was detected by heartbeat silence and every lost
// VM came back on a survivor, and the surviving fleet passes the
// cross-layer fsck.
func TestShardedChurnOutcome(t *testing.T) {
	rep := runChurn(t, 2, testSpec())

	if rep.HostsFailed != 1 {
		t.Errorf("HostsFailed = %d, want 1", rep.HostsFailed)
	}
	if rep.Failovers == 0 {
		t.Error("no VMs failed over after the host death")
	}
	if rep.FailoverMS.Len() != rep.Failovers {
		t.Errorf("failover latencies recorded for %d of %d failovers",
			rep.FailoverMS.Len(), rep.Failovers)
	}
	if rep.Unplaced != 0 {
		t.Errorf("%d VMs still in flight at the end of the run", rep.Unplaced)
	}
	if rep.FsckViolated != 0 {
		t.Errorf("fsck found %d violations on surviving hosts", rep.FsckViolated)
	}
	totalVMs, placed, created, migrations := 0, 0, 0, 0
	for _, p := range rep.Pools {
		totalVMs += 0
		placed += p.Placed
		created += p.Created
		migrations += p.Migrations
		if p.CreateMS.Len() != p.Created {
			t.Errorf("pool %s: %d creations but %d latencies", p.Name, p.Created, p.CreateMS.Len())
		}
	}
	_ = totalVMs
	if migrations == 0 {
		t.Error("no live migration completed")
	}
	// Every VM is placed, departed, or was re-created by failover:
	// placed + departures == VMs, created == placed + departures + failovers' extra creations.
	wantVMs := 0
	for _, p := range testPools() {
		wantVMs += p.VMs
	}
	departed := wantVMs - placed
	if departed < 0 {
		t.Errorf("placed %d exceeds fleet size %d", placed, wantVMs)
	}
	maxDeparted := testSpec().Waves * testSpec().DepartPerWave
	if departed > maxDeparted {
		t.Errorf("%d VMs unaccounted for (max %d departures possible)", departed, maxDeparted)
	}
	if created < placed {
		t.Errorf("created %d < placed %d", created, placed)
	}
}

// TestShardedDeferredHeartbeat is the cross-shard reincarnation of the
// nested-advance regression: a heartbeat tick that fires inside a
// toolstack operation (the host's clock advanced from within a create)
// must defer, not report mid-operation state — and the deferral must
// not starve the heartbeat loop into a false death declaration.
func TestShardedDeferredHeartbeat(t *testing.T) {
	pools := []HostPool{
		// xl creates take >100 virtual ms; with a 1 ms heartbeat the
		// tick is guaranteed to land mid-create.
		{Name: "xl", Mode: toolstack.ModeXL, Hosts: 1, VMs: 8, Image: guest.Daytime()},
	}
	sc, err := NewSharded(ShardedConfig{
		Machine:   testMachine,
		Workers:   2,
		Seed:      7,
		Heartbeat: time.Millisecond,
		DeadAfter: time.Minute,
	}, pools)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	rep, err := sc.RunChurn(ChurnSpec{Waves: 1, WavePeriod: time.Second, Drain: 2 * time.Minute})
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	if rep.DeferredBeats == 0 {
		t.Error("no heartbeat deferred during nested toolstack operations")
	}
	if rep.HostsFailed != 0 || rep.Failovers != 0 {
		t.Errorf("deferred beats caused a false death: failed=%d failovers=%d",
			rep.HostsFailed, rep.Failovers)
	}
	if rep.Unplaced != 0 || rep.Pools[0].Placed != 8 {
		t.Errorf("placement incomplete: unplaced=%d placed=%d", rep.Unplaced, rep.Pools[0].Placed)
	}
}

// TestShardedChurnRace hammers the cross-shard paths — concurrent
// creates, migration streams, heartbeats and a failover — with a full
// worker pool. Its value is under `go test -race`: any unsynchronized
// access in the mailbox/lookahead handoff or a shard touching another
// shard's state trips the detector.
func TestShardedChurnRace(t *testing.T) {
	pools := []HostPool{
		{Name: "chaos", Mode: toolstack.ModeLightVM, Hosts: 8, VMs: 240, Image: guest.Daytime()},
		{Name: "xl", Mode: toolstack.ModeXL, Hosts: 4, VMs: 40, Image: guest.Daytime()},
	}
	sc, err := NewSharded(ShardedConfig{Machine: testMachine, Workers: 8, Seed: 3}, pools)
	if err != nil {
		t.Fatalf("NewSharded: %v", err)
	}
	rep, err := sc.RunChurn(ChurnSpec{
		Waves:          4,
		WavePeriod:     time.Second,
		MigratePerWave: 6,
		DepartPerWave:  2,
		FailAt:         []time.Duration{1500 * time.Millisecond, 2500 * time.Millisecond},
		Drain:          time.Minute,
	})
	if err != nil {
		t.Fatalf("RunChurn: %v", err)
	}
	if rep.Unplaced != 0 {
		t.Errorf("%d VMs still in flight at the end of the run", rep.Unplaced)
	}
	if rep.FsckViolated != 0 {
		t.Errorf("fsck found %d violations", rep.FsckViolated)
	}
	if rep.Engine.Messages == 0 {
		t.Error("no cross-shard messages — the race test exercised nothing")
	}
}

// TestShardedHarvestCountsEachViolationOnce plants one leak, a console
// ring for a domain its host never ran, on one member of a small fleet
// with no host failures. The post-run audit runs every surviving
// host's fsck in one engine window; the leak must be counted exactly
// once at any worker count, and a fleet without it must audit clean.
func TestShardedHarvestCountsEachViolationOnce(t *testing.T) {
	pools := []HostPool{
		{Name: "chaos", Mode: toolstack.ModeLightVM, Hosts: 3, VMs: 24, Image: guest.Daytime()},
		{Name: "xl", Mode: toolstack.ModeXL, Hosts: 2, VMs: 8, Image: guest.Daytime()},
	}
	for _, leak := range []bool{false, true} {
		for _, workers := range []int{1, 4} {
			sc, err := NewSharded(ShardedConfig{Machine: testMachine, Workers: workers, Seed: 5}, pools)
			if err != nil {
				t.Fatalf("NewSharded: %v", err)
			}
			want := 0
			if leak {
				sc.agents[1].host.Env.Console.Attach(999)
				want = 1
			}
			rep, err := sc.RunChurn(ChurnSpec{Waves: 2, WavePeriod: time.Second, MigratePerWave: 2, Drain: 30 * time.Second})
			if err != nil {
				t.Fatalf("RunChurn: %v", err)
			}
			if rep.HostsFailed != 0 || rep.Unplaced != 0 {
				t.Fatalf("leak=%v workers=%d: %d hosts failed, %d VMs unplaced", leak, workers, rep.HostsFailed, rep.Unplaced)
			}
			if rep.FsckViolated != want {
				t.Errorf("leak=%v workers=%d: FsckViolated = %d, want %d", leak, workers, rep.FsckViolated, want)
			}
		}
	}
}
