package container

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"
	"time"

	"lightvm/internal/costs"
	"lightvm/internal/mm"
	"lightvm/internal/sim"
)

func newEngine(t *testing.T, gb uint64) (*Engine, *sim.Clock, *mm.Allocator) {
	t.Helper()
	clock := sim.NewClock()
	mem := mm.New(gb << 30)
	e, err := NewEngine(clock, mem)
	if err != nil {
		t.Fatal(err)
	}
	e.Pull(MicropythonImage())
	e.Pull(NoopImage())
	return e, clock, mem
}

func TestRunStop(t *testing.T) {
	e, _, mem := newEngine(t, 8)
	used := mem.UsedBytes()
	c, err := e.Run("micropython")
	if err != nil {
		t.Fatal(err)
	}
	if c.StartTime < costs.DockerBase {
		t.Fatalf("start time %v below docker base", c.StartTime)
	}
	if e.Containers() != 1 {
		t.Fatalf("containers = %d", e.Containers())
	}
	if mem.UsedBytes() <= used {
		t.Fatal("container consumed no memory")
	}
	if err := e.Stop(c.ID); err != nil {
		t.Fatal(err)
	}
	if mem.UsedBytes() != used {
		t.Fatalf("memory leak after stop: %d vs %d", mem.UsedBytes(), used)
	}
	if err := e.Stop(c.ID); !errors.Is(err, ErrNoSuchContainer) {
		t.Fatalf("double stop: %v", err)
	}
}

func TestUnknownImage(t *testing.T) {
	e, _, _ := newEngine(t, 2)
	if _, err := e.Run("nonesuch"); !errors.Is(err, ErrNoSuchImage) {
		t.Fatalf("unknown image: %v", err)
	}
}

func TestLayersSharedBetweenContainers(t *testing.T) {
	e, _, mem := newEngine(t, 8)
	c1, err := e.Run("micropython")
	if err != nil {
		t.Fatal(err)
	}
	afterFirst := mem.UsedBytes()
	c2, err := e.Run("micropython")
	if err != nil {
		t.Fatal(err)
	}
	secondCost := mem.UsedBytes() - afterFirst
	img := MicropythonImage()
	var layerBytes uint64
	for _, l := range img.Layers {
		layerBytes += l.Bytes
	}
	if secondCost >= layerBytes {
		t.Fatalf("second container paid %d bytes, layers (%d) not shared", secondCost, layerBytes)
	}
	// Layer memory released only after the last user stops.
	_ = e.Stop(c1.ID)
	if e.layerRefs["base-alpine"] != 1 {
		t.Fatalf("layer refcount = %d", e.layerRefs["base-alpine"])
	}
	_ = e.Stop(c2.ID)
	if len(e.layerOwner) != 0 {
		t.Fatal("layer memory survived last stop")
	}
}

// TestFailedRunLeavesMemoryUnchanged: a Run that fails on a layer or on
// app memory rolls back everything it took, so a layer it was first to
// materialize is freed again, while one a running container still
// shares stays put.
func TestFailedRunLeavesMemoryUnchanged(t *testing.T) {
	e, _, mem := newEngine(t, 1)
	e.Pull(Image{Name: "app-too-big",
		Layers:      []Layer{{ID: "base-alpine", Bytes: 5 << 20}, {ID: "fits", Bytes: 8 << 20}},
		AppMemBytes: 4 << 30})
	e.Pull(Image{Name: "layer-too-big",
		Layers:      []Layer{{ID: "fits", Bytes: 8 << 20}, {ID: "huge", Bytes: 4 << 30}},
		AppMemBytes: 1 << 20})
	base := mem.UsedBytes()
	failRun := func(image string) {
		t.Helper()
		before := mem.UsedBytes()
		if _, err := e.Run(image); !errors.Is(err, mm.ErrOutOfMemory) {
			t.Fatalf("run %s: %v, want out of memory", image, err)
		}
		if mem.UsedBytes() != before {
			t.Fatalf("failed run %s: memory used %d, was %d", image, mem.UsedBytes(), before)
		}
	}
	failRun("app-too-big")
	failRun("layer-too-big")
	if len(e.layerOwner) != 0 {
		t.Fatalf("failed runs left layers %v materialized", e.layerOwner)
	}

	// A failure sharing a running container's layer leaves it in place.
	c, err := e.Run("noop")
	if err != nil {
		t.Fatal(err)
	}
	failRun("app-too-big")
	if e.layerRefs["base-alpine"] != 1 {
		t.Fatalf("base-alpine refcount = %d after the failed run, want 1", e.layerRefs["base-alpine"])
	}
	if err := e.Stop(c.ID); err != nil {
		t.Fatal(err)
	}
	if mem.UsedBytes() != base {
		t.Fatalf("memory used %d after stop, want the engine's %d", mem.UsedBytes(), base)
	}
}

func TestStartTimeGrowsWithPopulation(t *testing.T) {
	e, _, _ := newEngine(t, 64)
	first, err := e.Run("noop")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 400; i++ {
		if _, err := e.Run("noop"); err != nil {
			t.Fatal(err)
		}
	}
	last, err := e.Run("noop")
	if err != nil {
		t.Fatal(err)
	}
	if last.StartTime <= first.StartTime {
		t.Fatalf("docker start flat: %v → %v", first.StartTime, last.StartTime)
	}
	// Fig. 10 slope: should remain well under 1s at ~400 containers.
	if last.StartTime > time.Second {
		t.Fatalf("start time %v too steep at 400 containers", last.StartTime)
	}
}

func TestDaemonMemorySpike(t *testing.T) {
	e, _, mem := newEngine(t, 100)
	var prevStart time.Duration
	spikeSeen := false
	memBefore := mem.UsedBytes()
	for i := 0; i < costs.DockerMemSpikeEvery+4; i++ {
		c, err := e.Run("noop")
		if err != nil {
			t.Fatal(err)
		}
		if prevStart > 0 && c.StartTime > prevStart+costs.DockerMemSpikeCost/2 {
			spikeSeen = true
		}
		prevStart = c.StartTime
	}
	if !spikeSeen {
		t.Fatal("no start-time spike at daemon table growth")
	}
	if mem.UsedBytes()-memBefore < 256<<20 {
		t.Fatal("daemon table growth did not consume memory")
	}
}

func TestMemoryWall(t *testing.T) {
	// With a small host, container creation must eventually fail with
	// an allocation error — the Fig. 10 "system becomes unresponsive"
	// point, which we surface as a clean error instead.
	e, _, _ := newEngine(t, 1)
	var err error
	n := 0
	for n < 1000 {
		_, err = e.Run("noop")
		if err != nil {
			break
		}
		n++
	}
	if err == nil {
		t.Fatal("never hit the memory wall on a 1 GB host")
	}
	if n == 0 {
		t.Fatal("no containers fit at all")
	}
}

func TestProcessSpawnConstantAndTailed(t *testing.T) {
	clock := sim.NewClock()
	mem := mm.New(8 << 30)
	pr := NewProcessRunner(clock, mem, sim.NewRNG(1))
	var lats []time.Duration
	for i := 0; i < 500; i++ {
		lat, err := pr.Spawn(1 << 20)
		if err != nil {
			t.Fatal(err)
		}
		lats = append(lats, lat)
	}
	if pr.Running() != 500 {
		t.Fatalf("running = %d", pr.Running())
	}
	// Median at the 3.5ms base; some tail beyond p90 = 9ms.
	base, tail := 0, 0
	for _, l := range lats {
		if l == costs.ForkExec {
			base++
		}
		if l >= costs.ForkExecP90 {
			tail++
		}
	}
	if base < 300 {
		t.Fatalf("only %d/500 spawns at base latency", base)
	}
	if tail == 0 {
		t.Fatal("no tail latencies ≥ p90")
	}
	if tail > 100 {
		t.Fatalf("%d/500 spawns ≥ p90 — tail too fat", tail)
	}
	// Population independence: the 500th costs the same distributionally;
	// verify no monotonic growth by comparing halves.
	var sum1, sum2 time.Duration
	for i, l := range lats {
		if i < 250 {
			sum1 += l
		} else {
			sum2 += l
		}
	}
	ratio := float64(sum2) / float64(sum1)
	if ratio > 1.5 || ratio < 0.67 {
		t.Fatalf("process spawn latency drifted with population: ratio=%.2f", ratio)
	}
}

func TestFig14DockerMemoryFootprint(t *testing.T) {
	// Fig. 14: 1000 Docker/Micropython containers ≈ 5 GB.
	e, _, mem := newEngine(t, 64)
	before := mem.UsedBytes()
	for i := 0; i < 1000; i++ {
		if _, err := e.Run("micropython"); err != nil {
			t.Fatalf("container %d: %v", i, err)
		}
	}
	gb := float64(mem.UsedBytes()-before) / float64(1<<30)
	if gb < 3 || gb > 8 {
		t.Fatalf("1000 containers used %.1f GB, want ≈5 GB", gb)
	}
	_ = fmt.Sprint(gb)
}

func TestRunStopAccountingQuick(t *testing.T) {
	f := func(ops []uint8) bool {
		clock := sim.NewClock()
		mem := mm.New(32 << 30)
		e, err := NewEngine(clock, mem)
		if err != nil {
			return false
		}
		e.Pull(MicropythonImage())
		e.Pull(NoopImage())
		base := mem.UsedBytes()
		var live []*Container
		for _, op := range ops {
			if op%3 != 0 || len(live) == 0 {
				img := "noop"
				if op%2 == 0 {
					img = "micropython"
				}
				c, err := e.Run(img)
				if err != nil {
					return false
				}
				live = append(live, c)
			} else {
				i := int(op/3) % len(live)
				if err := e.Stop(live[i].ID); err != nil {
					return false
				}
				live = append(live[:i], live[i+1:]...)
			}
			if e.Containers() != len(live) {
				return false
			}
		}
		for _, c := range live {
			if err := e.Stop(c.ID); err != nil {
				return false
			}
		}
		// All container and layer memory returned; only the daemon's
		// base (and any table growth) remains.
		return mem.UsedBytes() >= base && e.Containers() == 0 && len(e.layerOwner) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
