package main

import (
	"fmt"
	"runtime"
	"strconv"
	"time"

	"lightvm"
	"lightvm/internal/cluster"
	"lightvm/internal/core"
	"lightvm/internal/faults"
	"lightvm/internal/guest"
	"lightvm/internal/hv"
	"lightvm/internal/metrics"
	"lightvm/internal/mm"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
	"lightvm/internal/toolstack"
	"lightvm/internal/traffic"
	"lightvm/internal/xenstore"
)

// Layer replays time each layer's exported hot paths directly, outside
// any figure, so a change to one layer can be read off that layer's own
// numbers before it is looked for end to end. Every replay has a fixed
// op count and fixed inputs, runs one untimed warm-up batch, and
// reports the median of replayBatches timed batches. Set-up a batch
// needs (building paths, filling a store) stays outside the timer.

const replayBatches = 5

// replayer collects the replays' metrics. scale multiplies every op
// count: 1 in the benchmark, small in tests.
type replayer struct {
	scale float64
	out   map[string]float64
}

// replays lists every replay in the order they run.
var replays = []func(*replayer) error{
	replayStoreChurn, replayStoreSteady, replayMM, replayHV, replaySim,
	replayToolstack, replayFsckScrub, replayMigrate, replayTraffic,
	replayHistogram, replayClusterChurn, replayClusterFailover,
}

// runReplays runs every replay and returns its metrics.
func runReplays(scale float64) (map[string]float64, error) {
	r := &replayer{scale: scale, out: map[string]float64{}}
	for _, replay := range replays {
		if err := replay(r); err != nil {
			return nil, err
		}
	}
	return r.out, nil
}

// n scales an op count, never below 1.
func (r *replayer) n(ops int) int {
	if v := int(float64(ops) * r.scale); v > 1 {
		return v
	}
	return 1
}

// repeat runs batch once untimed, then replayBatches times, and records
// the median of each value the timed batches return.
func (r *replayer) repeat(batch func() (map[string]float64, error)) error {
	if _, err := batch(); err != nil {
		return err
	}
	samples := map[string][]float64{}
	for i := 0; i < replayBatches; i++ {
		vals, err := batch()
		if err != nil {
			return err
		}
		for k, v := range vals {
			samples[k] = append(samples[k], v)
		}
	}
	for k, vs := range samples {
		r.out[k] = summarize(vs).Median
	}
	return nil
}

// mallocs is the process's cumulative heap-object count. ReadMemStats
// flushes the per-P caches, so unlike runtime/metrics the count is
// exact; it stops the world, so it is read per batch, never per op.
func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// nsPer and per spread a duration or a count over ops.
func nsPer(d time.Duration, ops int) float64 { return float64(d.Nanoseconds()) / float64(ops) }
func per(v uint64, ops int) float64          { return float64(v) / float64(ops) }

// guestKeys is the 12-node registry subtree a guest writes under
// /local/domain/<id>: identity, memory, vCPU and one vif handshake.
var guestKeys = [...]string{
	"name", "domid", "memory/target", "memory/static-max", "cpu/0/availability",
	"device/vif/0/backend", "device/vif/0/backend-id", "device/vif/0/state",
	"device/vif/0/handle", "device/vif/0/mac", "device/vif/0/event-channel",
	"device/vif/0/tx-ring-ref",
}

func domPath(id int) string { return "/local/domain/" + strconv.Itoa(id) }

// guestPaths returns the full paths of id's subtree.
func guestPaths(id int) []string {
	dom := domPath(id)
	out := make([]string, len(guestKeys))
	for i, k := range guestKeys {
		out[i] = dom + "/" + k
	}
	return out
}

// replayStoreChurn is the serving plane's store pattern: a transaction
// writing a fresh guest's subtree under a never-reused domain id, later
// removed. 60k ids over the six batches cross the store's path-table
// bound about twenty times.
func replayStoreChurn(r *replayer) error {
	s := xenstore.New(sim.NewClock())
	s.LoggingEnabled = false
	n := r.n(10_000)
	next := 1
	return r.repeat(func() (map[string]float64, error) {
		ids := make([]int, n)
		paths := make([][]string, n)
		for i := range ids {
			ids[i] = next
			paths[i] = guestPaths(next)
			next++
		}
		m0 := mallocs()
		start := time.Now()
		for _, ps := range paths {
			tx := s.TxnStart()
			for _, p := range ps {
				tx.Write(p, "4")
			}
			if err := tx.Commit(); err != nil {
				return nil, fmt.Errorf("xenstore churn: %w", err)
			}
		}
		txn := time.Since(start)
		objs := mallocs() - m0
		start = time.Now()
		for _, id := range ids {
			if err := s.Rm(domPath(id)); err != nil {
				return nil, fmt.Errorf("xenstore churn: %w", err)
			}
		}
		rm := time.Since(start)
		return map[string]float64{
			"xenstore.txn_churn_ns":     nsPer(txn, n),
			"xenstore.txn_churn_allocs": per(objs, n),
			"xenstore.rm_churn_ns":      nsPer(rm, n),
		}, nil
	})
}

// replayStoreSteady times reads, listings, watch delivery and the
// checkpoint operations on a steady 1,000-guest store, one watch per
// guest's device tree.
func replayStoreSteady(r *replayer) error {
	const guests = 1000
	s := xenstore.New(sim.NewClock())
	s.LoggingEnabled = false
	var paths []string
	fired := 0
	for id := 1; id <= guests; id++ {
		for _, p := range guestPaths(id) {
			s.Write(p, "4")
			paths = append(paths, p)
		}
		s.Watch(domPath(id)+"/device", "w"+strconv.Itoa(id), func(string, string) { fired++ })
	}
	vifDir := func(id int) string { return domPath(id) + "/device/vif/0" }
	reads, lists, checkpoints := r.n(120_000), r.n(20_000), r.n(2_000)
	return r.repeat(func() (map[string]float64, error) {
		out := map[string]float64{}
		start := time.Now()
		for i := 0; i < reads; i++ {
			if _, err := s.Read(paths[i%len(paths)]); err != nil {
				return nil, err
			}
		}
		out["xenstore.read_ns"] = nsPer(time.Since(start), reads)

		start = time.Now()
		for i := 0; i < lists; i++ {
			if _, err := s.Directory(vifDir(1 + i%guests)); err != nil {
				return nil, err
			}
		}
		out["xenstore.directory_ns"] = nsPer(time.Since(start), lists)

		states := make([]string, lists)
		for i := range states {
			states[i] = vifDir(1+i%guests) + "/state"
		}
		fired = 0
		start = time.Now()
		for _, p := range states {
			s.Write(p, "4")
		}
		out["xenstore.watch_fire_ns"] = nsPer(time.Since(start), lists)
		if fired != lists {
			return nil, fmt.Errorf("xenstore: %d watch firings for %d writes", fired, lists)
		}

		blobs := make([][]byte, checkpoints)
		start = time.Now()
		for i := range blobs {
			b, err := s.SerializeSubtree(domPath(1 + i%guests))
			if err != nil {
				return nil, err
			}
			blobs[i] = b
		}
		out["xenstore.serialize_ns"] = nsPer(time.Since(start), checkpoints)

		snaps := make([]*xenstore.Snapshot, checkpoints)
		start = time.Now()
		for i, b := range blobs {
			sn, err := xenstore.DeserializeSnapshot(b)
			if err != nil {
				return nil, err
			}
			snaps[i] = sn
		}
		out["xenstore.deserialize_ns"] = nsPer(time.Since(start), checkpoints)

		start = time.Now()
		for i, sn := range snaps {
			if err := s.GraftSnapshot(sn, "/", domPath(1+i%guests)); err != nil {
				return nil, err
			}
		}
		out["xenstore.graft_ns"] = nsPer(time.Since(start), checkpoints)

		m0 := mallocs()
		for i := 0; i < checkpoints; i++ {
			if _, err := s.Snapshot().Subtree(domPath(1 + i%guests)); err != nil {
				return nil, err
			}
		}
		out["xenstore.snapshot_allocs"] = per(mallocs()-m0, checkpoints)
		return out, nil
	})
}

// replayMM allocates a guest-shaped set of extents for each of 1,600
// owners on a 32 GB host, then releases every owner.
func replayMM(r *replayer) error {
	a := mm.New(32 << 30)
	owners := r.n(1600)
	sizes := []uint64{1024, 256, 16, 1} // pages: 4 MiB, 1 MiB, 64 KiB, 4 KiB
	calls := owners * len(sizes)
	return r.repeat(func() (map[string]float64, error) {
		m0 := mallocs()
		start := time.Now()
		for o := 1; o <= owners; o++ {
			for _, p := range sizes {
				if _, err := a.AllocPages(p, mm.Owner(o)); err != nil {
					return nil, err
				}
			}
		}
		alloc := time.Since(start)
		objs := mallocs() - m0
		start = time.Now()
		for o := 1; o <= owners; o++ {
			if a.FreeOwner(mm.Owner(o)) == 0 {
				return nil, fmt.Errorf("mm: owner %d freed nothing", o)
			}
		}
		return map[string]float64{
			"mm.alloc_pages_ns":     nsPer(alloc, calls),
			"mm.alloc_pages_allocs": per(objs, calls),
			"mm.free_owner_ns":      nsPer(time.Since(start), owners),
		}, nil
	})
}

// replayHV creates and destroys 1,600 small domains (with their memory)
// and cycles event channels between a guest and Dom0.
func replayHV(r *replayer) error {
	h := hv.New(sim.NewClock(), 32<<30)
	doms, sends := r.n(1600), r.n(40_000)
	cfg := hv.Config{MaxMem: 4 << 20, VCPUs: 1}
	guestDom, err := h.CreateDomain(cfg)
	if err != nil {
		return err
	}
	delivered := 0
	upcall := func() { delivered++ }
	return r.repeat(func() (map[string]float64, error) {
		ids := make([]hv.DomID, doms)
		m0 := mallocs()
		start := time.Now()
		for i := range ids {
			d, err := h.CreateDomain(cfg)
			if err != nil {
				return nil, err
			}
			if err := h.PopulatePhysmap(d.ID, cfg.MaxMem); err != nil {
				return nil, err
			}
			ids[i] = d.ID
		}
		create := time.Since(start)
		start = time.Now()
		for _, id := range ids {
			if err := h.DestroyDomain(id); err != nil {
				return nil, err
			}
		}
		destroy := time.Since(start)
		objs := mallocs() - m0

		delivered = 0
		start = time.Now()
		for i := 0; i < sends; i++ {
			p, err := h.AllocUnboundPort(guestDom.ID, 0)
			if err != nil {
				return nil, err
			}
			if err := h.BindPort(p, 0, upcall); err != nil {
				return nil, err
			}
			if err := h.Send(p); err != nil {
				return nil, err
			}
			if err := h.ClosePort(p); err != nil {
				return nil, err
			}
		}
		evtchn := time.Since(start)
		if delivered != sends {
			return nil, fmt.Errorf("hv: %d upcalls for %d sends", delivered, sends)
		}
		return map[string]float64{
			"hv.create_domain_ns":  nsPer(create, doms),
			"hv.destroy_domain_ns": nsPer(destroy, doms),
			"hv.domain_allocs":     per(objs, doms),
			"hv.evtchn_ns":         nsPer(evtchn, sends),
		}, nil
	})
}

// replaySim times the single-host event queue and the sharded engine's
// local-event and cross-shard-message paths (64 shards, 2 workers).
func replaySim(r *replayer) error {
	const shards, pending = 64, 1024
	events, msgs := r.n(400_000), r.n(100_000)
	return r.repeat(func() (map[string]float64, error) {
		out := map[string]float64{}

		// Single clock: a queue kept pending events deep, each firing
		// scheduling the next at a pseudo-random offset.
		c := sim.NewClock()
		left, x := events, uint32(1)
		var tick func()
		tick = func() {
			if left > 0 {
				left--
				x = x*1664525 + 1013904223
				c.After(time.Duration(x>>20)*time.Microsecond, tick)
			}
		}
		for i := 0; i < pending; i++ {
			c.After(time.Duration(i)*time.Microsecond, tick)
		}
		start := time.Now()
		fired := c.Drain(0)
		out["sim.clock_event_ns"] = nsPer(time.Since(start), fired)

		e := sim.NewEngine(shards, engineWorkers, time.Millisecond)
		perShard := events / shards
		for i := 0; i < shards; i++ {
			clk := e.Shard(i).Clock()
			n := 0
			var step func()
			step = func() {
				if n++; n < perShard {
					clk.After(50*time.Microsecond, step)
				}
			}
			clk.After(time.Duration(i+1)*time.Microsecond, step)
		}
		start = time.Now()
		st := e.Run()
		out["sim.engine_event_ns"] = nsPer(time.Since(start), int(st.Events))

		e = sim.NewEngine(shards, engineWorkers, time.Millisecond)
		perPair := msgs / (shards / 2)
		for i := 0; i < shards; i += 2 {
			a, b := e.Shard(i), e.Shard(i+1)
			n := 0
			var ping, pong func()
			ping = func() {
				if n++; n < perPair {
					a.Send(b.ID(), 0, pong)
				}
			}
			pong = func() {
				if n++; n < perPair {
					b.Send(a.ID(), 0, ping)
				}
			}
			a.Clock().After(time.Microsecond, ping)
		}
		start = time.Now()
		st = e.Run()
		if st.Messages == 0 {
			return nil, fmt.Errorf("sim: engine delivered no messages")
		}
		out["sim.engine_msg_ns"] = nsPer(time.Since(start), int(st.Messages))
		return out, nil
	})
}

// replayHost is the machine the toolstack, migration and cluster
// replays run on.
var replayHost = sched.Xeon4

// replayToolstack creates and destroys guests through core.Host in the
// stock, full-LightVM and noxs-only toolstacks, one host per mode.
func replayToolstack(r *replayer) error {
	n := r.n(200)
	img := guest.Daytime()
	modes := []struct {
		name string
		mode toolstack.Mode
	}{
		{"xl", toolstack.ModeXL}, {"lightvm", toolstack.ModeLightVM}, {"noxs", toolstack.ModeChaosNoXS},
	}
	hosts := make([]*core.Host, len(modes))
	for i, m := range modes {
		h, err := core.NewHost(replayHost, 1)
		if err != nil {
			return err
		}
		if err := h.EnsureFlavor(img, m.mode); err != nil {
			return err
		}
		hosts[i] = h
	}
	seq := 0
	return r.repeat(func() (map[string]float64, error) {
		out := map[string]float64{}
		for i, m := range modes {
			h := hosts[i]
			names := make([]string, n)
			for j := range names {
				seq++
				names[j] = m.name + "-" + strconv.Itoa(seq)
			}
			vms := make([]*toolstack.VM, n)
			var create time.Duration
			m0 := mallocs()
			for j, name := range names {
				// Refilling the shell pool is the split toolstack's
				// background work, not part of a create.
				if m.mode.UsesSplit() {
					if err := h.Replenish(); err != nil {
						return nil, err
					}
				}
				start := time.Now()
				vm, err := h.CreateVM(m.mode, name, img)
				create += time.Since(start)
				if err != nil {
					return nil, err
				}
				vms[j] = vm
			}
			start := time.Now()
			for _, vm := range vms {
				if err := h.DestroyVM(vm); err != nil {
					return nil, err
				}
			}
			out["toolstack."+m.name+"_destroy_ns"] = nsPer(time.Since(start), n)
			out["toolstack."+m.name+"_create_ns"] = nsPer(create, n)
			if m.mode == toolstack.ModeXL {
				out["toolstack.lifecycle_allocs"] = per(mallocs()-m0, n)
			}
		}
		return out, nil
	})
}

// replayFsckScrub audits and scrubs a host running 1,000 store-backed
// guests; both passes find nothing and change nothing.
func replayFsckScrub(r *replayer) error {
	h, err := core.NewHost(replayHost, 1)
	if err != nil {
		return err
	}
	img := guest.Daytime()
	for i := 0; i < r.n(1000); i++ {
		if _, err := h.CreateVM(toolstack.ModeChaosXS, "g"+strconv.Itoa(i), img); err != nil {
			return err
		}
	}
	passes := 3
	return r.repeat(func() (map[string]float64, error) {
		start := time.Now()
		for i := 0; i < passes; i++ {
			if v := lightvm.Fsck(h); len(v) > 0 {
				return nil, fmt.Errorf("toolstack: fsck: %v", v[0])
			}
		}
		fsck := time.Since(start)
		start = time.Now()
		for i := 0; i < passes; i++ {
			if rep := h.Env.Scrub(toolstack.ModeChaosXS); rep.Orphans+rep.Residue+rep.Journals > 0 {
				return nil, fmt.Errorf("toolstack: scrub of a clean host reaped %+v", rep)
			}
		}
		return map[string]float64{
			"toolstack.fsck_ns":  nsPer(fsck, passes),
			"toolstack.scrub_ns": nsPer(time.Since(start), passes),
		}, nil
	})
}

// replayMigrate saves and restores one store-backed guest in a loop.
func replayMigrate(r *replayer) error {
	h, err := core.NewHost(replayHost, 1)
	if err != nil {
		return err
	}
	vm, err := h.CreateVM(toolstack.ModeChaosXS, "mig", guest.Daytime())
	if err != nil {
		return err
	}
	n := r.n(300)
	return r.repeat(func() (map[string]float64, error) {
		var save, restore time.Duration
		for i := 0; i < n; i++ {
			start := time.Now()
			cp, _, err := h.Save(vm)
			save += time.Since(start)
			if err != nil {
				return nil, err
			}
			start = time.Now()
			vm, _, err = h.Restore(cp)
			restore += time.Since(start)
			if err != nil {
				return nil, err
			}
		}
		return map[string]float64{
			"migrate.save_ns":    nsPer(save, n),
			"migrate.restore_ns": nsPer(restore, n),
		}, nil
	})
}

// replayTraffic serves one ext-overload-shaped cell: chaos
// VM-per-request at twice its calibrated capacity, retry storm armed,
// defenses off. It also times the arrival generator alone.
func replayTraffic(r *replayer) error {
	capacity, err := traffic.EstimateCapacity(traffic.VMPerRequest, guest.Daytime())
	if err != nil {
		return err
	}
	timeout := 30 * time.Duration(float64(time.Second)/capacity)
	reqs, gaps := r.n(2000), r.n(2_000_000)
	var sink time.Duration
	return r.repeat(func() (map[string]float64, error) {
		m0 := mallocs()
		start := time.Now()
		st, h, err := traffic.Serve(traffic.Config{
			Mode:         traffic.VMPerRequest,
			Seed:         7,
			Arrivals:     traffic.NewPoisson(7, 2*capacity),
			Requests:     reqs,
			MaxBacklog:   3 * timeout,
			Timeout:      timeout,
			RetryBackoff: timeout / 4,
			FaultPlan:    faults.Plan{Rate: 0.9, Kinds: []faults.Kind{faults.KindRetryStorm}},
		})
		serve := time.Since(start)
		objs := mallocs() - m0
		if err != nil {
			return nil, err
		}
		if st.Served+st.Rejected == 0 {
			return nil, fmt.Errorf("traffic: nothing served or rejected")
		}
		if v := lightvm.Fsck(h); len(v) > 0 {
			return nil, fmt.Errorf("traffic: fsck: %v", v[0])
		}

		p := traffic.NewPoisson(1, 1000)
		start = time.Now()
		for i := 0; i < gaps; i++ {
			sink += p.Next()
		}
		return map[string]float64{
			"traffic.serve_ns_per_req":     nsPer(serve, reqs),
			"traffic.serve_allocs_per_req": per(objs, reqs),
			"traffic.arrival_next_ns":      nsPer(time.Since(start), gaps),
		}, nil
	})
}

// replayHistogram records latencies into the serving plane's histogram
// and extracts its tail.
func replayHistogram(r *replayer) error {
	obs, quantiles := r.n(2_000_000), r.n(20_000)
	lat := make([]time.Duration, 4096)
	x := uint64(3)
	for i := range lat {
		lat[i] = time.Duration(splitmix64(&x) % uint64(2*time.Second))
	}
	var sink time.Duration
	return r.repeat(func() (map[string]float64, error) {
		var h metrics.Histogram
		start := time.Now()
		for i := 0; i < obs; i++ {
			h.Observe(lat[i&(len(lat)-1)])
		}
		observe := time.Since(start)
		start = time.Now()
		for i := 0; i < quantiles; i++ {
			sink += h.Quantile(99)
		}
		return map[string]float64{
			"metrics.hist_observe_ns":  nsPer(observe, obs),
			"metrics.hist_quantile_ns": nsPer(time.Since(start), quantiles),
		}, nil
	})
}

// replayClusterChurn runs a 16-host sharded fleet through arrival
// waves, migrations, departures and one host death.
func replayClusterChurn(r *replayer) error {
	machine := sched.Machine{Name: "member", Cores: 4, Dom0Cores: 1, MemoryGB: 32}
	pools := []cluster.HostPool{
		{Name: "chaos", Mode: toolstack.ModeLightVM, Hosts: 12, VMs: r.n(2400), Image: guest.Daytime()},
		{Name: "xl", Mode: toolstack.ModeXL, Hosts: 4, VMs: r.n(64), Image: guest.Daytime()},
	}
	domains := pools[0].VMs + pools[1].VMs
	spec := cluster.ChurnSpec{
		Waves:          4,
		WavePeriod:     2 * time.Second,
		MigratePerWave: 8,
		DepartPerWave:  4,
		FailAt:         []time.Duration{2500 * time.Millisecond},
		Drain:          60 * time.Second,
	}
	return r.repeat(func() (map[string]float64, error) {
		start := time.Now()
		sc, err := cluster.NewSharded(cluster.ShardedConfig{Machine: machine, Workers: engineWorkers, Seed: 1}, pools)
		if err != nil {
			return nil, err
		}
		run := time.Now()
		rep, err := sc.RunChurn(spec)
		if err != nil {
			return nil, err
		}
		end := time.Now()
		if rep.Unplaced > 0 || rep.FsckViolated > 0 {
			return nil, fmt.Errorf("cluster churn: %d unplaced, %d fsck violations", rep.Unplaced, rep.FsckViolated)
		}
		return map[string]float64{
			"cluster.churn_ns_per_domain": nsPer(end.Sub(start), domains),
			"sim.events_per_s":            float64(rep.Engine.Events) / end.Sub(run).Seconds(),
		}, nil
	})
}

// replayClusterFailover places guests across a 4-host mutex cluster,
// kills one host and fails its guests over to the survivors.
func replayClusterFailover(r *replayer) error {
	n := r.n(200)
	img := guest.Daytime()
	return r.repeat(func() (map[string]float64, error) {
		c := cluster.New(sim.NewClock())
		for i := 0; i < 4; i++ {
			if _, err := c.AddHost("h"+strconv.Itoa(i), replayHost, uint64(i+1)); err != nil {
				return nil, err
			}
		}
		names := make([]string, n)
		for i := range names {
			names[i] = "vm" + strconv.Itoa(i)
		}
		start := time.Now()
		for _, name := range names {
			if _, _, err := c.Place(toolstack.ModeLightVM, name, img); err != nil {
				return nil, err
			}
		}
		place := time.Since(start)
		lost, err := c.FailHost("h0")
		if err != nil {
			return nil, err
		}
		start = time.Now()
		_, recovered, err := c.Failover(lost)
		failover := time.Since(start)
		if err != nil {
			return nil, err
		}
		if recovered != len(lost) || recovered == 0 {
			return nil, fmt.Errorf("cluster: recovered %d of %d lost guests", recovered, len(lost))
		}
		return map[string]float64{
			"cluster.place_ns":    nsPer(place, n),
			"cluster.failover_ns": nsPer(failover, recovered),
		}, nil
	})
}
