// Sharded cluster: the §7.1 scheduler at datacenter scale on the
// parallel discrete-event core.
//
// Cluster (cluster.go) keeps every host on one shared clock, driven by
// one goroutine — faithful for a handful of edge machines, but a single
// global event queue serializes the simulation and caps experiments at one
// host's worth of concurrency. Sharded instead gives every simulated
// host its own logical process (sim.Shard): a private clock, a private
// toolstack.Env with the full control plane, and a mailbox. A
// controller process (shard 0) runs the cluster scheduler — placement,
// failover, migration orchestration, health monitoring — and ALL
// cross-host interaction travels as timestamped messages with at least
// costs.ClusterLookahead of latency, which is what lets sim.Engine
// execute host timelines concurrently between synchronization points.
//
// The protocol (every arrow is a sim.Shard.Send):
//
//	controller → host:  create batch, destroy, migrate-out, fence/kill, stop
//	host → controller:  heartbeat, create ack, destroy ack, migrate ack/nack
//	host → host:        checkpoint stream (Save on the source's clock,
//	                    migrate.StreamCost of wire delay, Restore on the
//	                    destination's clock)
//
// The controller schedules against its *view* of the fleet — VM counts
// it maintains from acks, liveness it infers from heartbeat silence —
// never by peeking at host state. Failure recovery is fenced the same
// way Cluster's lease plane fences it: a host declared dead is sent a
// kill (idempotent if it really is dead), re-placement waits two
// lookaheads so the fence provably lands first, and every command
// carries the VM's placement epoch so a stale ack (the "dead" host
// answering after failover) is detected and the orphan reaped instead
// of double-counted.
//
// Determinism is the contract: the controller's decisions depend only
// on its own seeded RNG and the canonical message delivery order, and
// host work depends only on each host's private state, so the same
// seed produces byte-identical results at every engine worker count.
// ext-cluster builds its headline figure on exactly that property.
package cluster

import (
	"fmt"
	"sort"
	"strconv"
	"time"

	"lightvm/internal/core"
	"lightvm/internal/costs"
	"lightvm/internal/guest"
	"lightvm/internal/metrics"
	"lightvm/internal/migrate"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
	"lightvm/internal/toolstack"
)

// HostPool is one homogeneous slice of the fleet: n hosts running one
// toolstack mode, populated with VMs of one image.
type HostPool struct {
	Name  string
	Mode  toolstack.Mode
	Hosts int
	VMs   int
	Image guest.Image
}

// ShardedConfig sizes the sharded cluster.
type ShardedConfig struct {
	// Machine is the per-host hardware (every member is identical).
	Machine sched.Machine
	// Workers bounds the engine's worker goroutines (the shard-count
	// sweep dimension; results are identical for every value). 0 = 1.
	Workers int
	// Seed drives the controller's churn decisions and each host's
	// stochastic behaviour.
	Seed uint64
	// Heartbeat overrides costs.HeartbeatPeriod (tests only).
	Heartbeat time.Duration
	// DeadAfter overrides costs.HeartbeatDead (tests only).
	DeadAfter time.Duration
}

// ChurnSpec is the deterministic workload program RunChurn executes.
type ChurnSpec struct {
	// Waves is the number of arrival rounds; each pool's VMs are
	// placed in equal batches across them, WavePeriod apart.
	Waves int
	// WavePeriod is the virtual time between arrival rounds.
	WavePeriod time.Duration
	// MigratePerWave live-migrates this many running VMs per wave
	// (handover churn), picked by the controller's RNG.
	MigratePerWave int
	// DepartPerWave destroys this many running VMs per wave.
	DepartPerWave int
	// FailAt lists virtual times at which one random live host dies a
	// whole-machine death; recovery goes through heartbeat detection.
	FailAt []time.Duration
	// Drain is the extra settle time after the last wave before the
	// run is forcibly stopped even if VMs are still in flight.
	Drain time.Duration
}

// vm placement states (controller view).
const (
	vmNone      uint8 = iota // id not yet assigned
	vmPlacing                // create command in flight
	vmPlaced                 // running, ack received
	vmMigrating              // checkpoint stream in flight
	vmDeparting              // destroy command in flight
	vmGone                   // destroyed
)

// PoolChurn is one pool's slice of a ChurnReport.
type PoolChurn struct {
	Name       string
	Hosts      int
	Placed     int // VMs running at the end of the run
	Created    int // successful creations (initial + failover)
	Migrations int
	CreateMS   metrics.Series // per-creation latency (create+boot), ms
	MigrateMS  metrics.Series // per-handover latency (save+wire+restore), ms
}

// ChurnReport is RunChurn's deterministic result.
type ChurnReport struct {
	Pools      []PoolChurn
	FailoverMS metrics.Series // per-VM unavailability across host failures, ms

	HostsFailed   int    // injected whole-machine failures
	Failovers     int    // VMs re-placed after a death declaration
	Fenced        int    // stale acks detected and orphans reaped
	Saturated     int    // placements parked because no host had room
	Unplaced      int    // VMs still not running at the forced stop
	DeferredBeats uint64 // heartbeats skipped inside nested host ops
	FsckViolated  int    // cross-layer invariant violations (want 0)

	Engine     sim.EngineStats
	MakespanMS float64
}

// Sharded is a cluster of host logical processes plus a controller.
type Sharded struct {
	eng       *sim.Engine
	ctl       *shardCtl
	agents    []*hostAgent
	heartbeat time.Duration
	deadAfter time.Duration
}

// poolState is the controller's per-pool bookkeeping.
type poolState struct {
	HostPool
	firstVM uint32
	nextVM  uint32   // next id to assign in the initial waves
	heap    []uint64 // packed (count<<32 | gidx) min-heap, lazy entries
	report  PoolChurn
}

// shardCtl is the controller logical process (shard 0). Everything in
// it is touched only from shard-0 event handlers.
type shardCtl struct {
	sc    *Sharded
	shard *sim.Shard
	rng   *sim.RNG
	spec  ChurnSpec
	pools []*poolState

	// Per-host view, indexed by global host index.
	count    []int32
	alive    []bool
	full     []bool
	lastBeat []sim.Time
	poolOf   []uint8

	// Per-VM view, indexed by id. vmFrom is the migration source of a
	// vmMigrating VM (vmHost already points at the destination); it is
	// only meaningful while the state is vmMigrating.
	vmHost  []int32
	vmPool  []uint8
	vmState []uint8
	vmEpoch []uint32
	vmFrom  []int32

	// failedAt records injected failure times for the unavailability
	// metric; vmFailedAt tags in-flight failover re-placements.
	failedAt   map[int]sim.Time
	vmFailedAt map[uint32]sim.Time

	pending  int // VMs in a transient state (quiesce condition)
	satQueue []uint32
	stopped  bool
	wavesRun int
	wavesEnd sim.Time
	report   ChurnReport

	// scratch for batch grouping, reused across waves.
	batchHosts []int32
	batchIDs   map[int32][]uint32
}

// hostAgent is one host logical process: the full simulated machine
// plus the message handlers of the cluster protocol. Only its own
// shard's handlers touch it.
type hostAgent struct {
	sc    *Sharded
	shard *sim.Shard
	host  *core.Host
	gidx  int
	mode  toolstack.Mode
	img   guest.Image

	flavorReady bool
	// opDepth counts toolstack operations in progress on this host.
	// The heartbeat tick can fire from a clock advance nested inside
	// one (a create sleeping mid-boot, a restore loading pages);
	// reporting from there would read toolstack state the operation is
	// mid-way through mutating, so the beat defers to the next tick —
	// the cross-shard reincarnation of Cluster.healthTick's opDepth
	// guard.
	opDepth       int
	deferredBeats uint64
	dead          bool
	stopped       bool
	nameBuf       []byte

	// busy/workq serialize env-touching commands. Batch stepping (see
	// createBatch) deliberately returns to the event loop between
	// creates so fences and beats stay timely — which means a command
	// message can fire from a clock advance nested inside another
	// toolstack operation. Reentering the env there would run on
	// state the outer operation has half mutated, so every command
	// funnels through exec's one-at-a-time queue instead.
	busy  bool
	workq []func()
}

// exec runs op now if the host is idle, otherwise queues it behind the
// operation in progress. Queue order is arrival order, which is itself
// deterministic (nested firing follows the canonical delivery order).
func (a *hostAgent) exec(op func()) {
	a.workq = append(a.workq, op)
	if a.busy {
		return
	}
	a.busy = true
	for len(a.workq) > 0 {
		next := a.workq[0]
		copy(a.workq, a.workq[1:])
		a.workq[len(a.workq)-1] = nil
		a.workq = a.workq[:len(a.workq)-1]
		next()
	}
	a.busy = false
}

// NewSharded builds the engine, the controller and one agent per host.
func NewSharded(cfg ShardedConfig, pools []HostPool) (*Sharded, error) {
	if len(pools) == 0 {
		return nil, fmt.Errorf("cluster: sharded needs at least one pool")
	}
	totalHosts := 0
	totalVMs := uint32(0)
	for _, p := range pools {
		if p.Hosts <= 0 || p.VMs < 0 {
			return nil, fmt.Errorf("cluster: pool %q needs hosts > 0", p.Name)
		}
		totalHosts += p.Hosts
		totalVMs += uint32(p.VMs)
	}
	sc := &Sharded{
		heartbeat: cfg.Heartbeat,
		deadAfter: cfg.DeadAfter,
	}
	if sc.heartbeat <= 0 {
		sc.heartbeat = costs.HeartbeatPeriod
	}
	if sc.deadAfter <= 0 {
		sc.deadAfter = costs.HeartbeatDead
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = 1
	}
	sc.eng = sim.NewEngine(totalHosts+1, workers, costs.ClusterLookahead)

	ctl := &shardCtl{
		sc:         sc,
		shard:      sc.eng.Shard(0),
		rng:        sim.NewRNG(cfg.Seed),
		count:      make([]int32, totalHosts),
		alive:      make([]bool, totalHosts),
		full:       make([]bool, totalHosts),
		lastBeat:   make([]sim.Time, totalHosts),
		poolOf:     make([]uint8, totalHosts),
		vmHost:     make([]int32, totalVMs),
		vmPool:     make([]uint8, totalVMs),
		vmState:    make([]uint8, totalVMs),
		vmEpoch:    make([]uint32, totalVMs),
		vmFrom:     make([]int32, totalVMs),
		failedAt:   make(map[int]sim.Time),
		vmFailedAt: make(map[uint32]sim.Time),
		batchIDs:   make(map[int32][]uint32),
	}
	for i := range ctl.vmHost {
		ctl.vmHost[i] = -1
	}
	sc.ctl = ctl

	sc.agents = make([]*hostAgent, totalHosts)
	g := 0
	vmBase := uint32(0)
	for pi, p := range pools {
		ps := &poolState{HostPool: p, firstVM: vmBase, nextVM: vmBase}
		ps.report.Name = p.Name
		ps.report.Hosts = p.Hosts
		ps.report.CreateMS.Values = make([]float64, 0, p.VMs)
		ctl.pools = append(ctl.pools, ps)
		for h := 0; h < p.Hosts; h++ {
			shard := sc.eng.Shard(g + 1)
			host, err := core.NewHostOn(shard.Clock(), cfg.Machine, cfg.Seed+uint64(g)*0x9e37+1)
			if err != nil {
				return nil, fmt.Errorf("cluster: sharded host %d: %w", g, err)
			}
			sc.agents[g] = &hostAgent{
				sc: sc, shard: shard, host: host, gidx: g,
				mode: p.Mode, img: p.Image,
			}
			ctl.alive[g] = true
			ctl.poolOf[g] = uint8(pi)
			ps.pushHost(g, 0)
			g++
		}
		vmBase += uint32(p.VMs)
	}
	return sc, nil
}

// ---------------------------------------------------------------------------
// Controller: placement heap
// ---------------------------------------------------------------------------

// The per-pool heap holds (count, host) keys packed into a uint64 so
// least-loaded-first with host-index tie-break is a single integer
// compare. Entries are lazy: count changes and deaths do not search
// the heap, they just make old entries stale; pop discards any entry
// whose packed count disagrees with the live view.

func packLoad(count int32, gidx int) uint64 { return uint64(count)<<32 | uint64(uint32(gidx)) }

func (ps *poolState) pushHost(gidx int, count int32) {
	ps.heap = append(ps.heap, packLoad(count, gidx))
	i := len(ps.heap) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if ps.heap[parent] <= ps.heap[i] {
			break
		}
		ps.heap[parent], ps.heap[i] = ps.heap[i], ps.heap[parent]
		i = parent
	}
}

func (ps *poolState) popHost() (uint64, bool) {
	if len(ps.heap) == 0 {
		return 0, false
	}
	top := ps.heap[0]
	last := len(ps.heap) - 1
	ps.heap[0] = ps.heap[last]
	ps.heap = ps.heap[:last]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < last && ps.heap[l] < ps.heap[small] {
			small = l
		}
		if r < last && ps.heap[r] < ps.heap[small] {
			small = r
		}
		if small == i {
			break
		}
		ps.heap[i], ps.heap[small] = ps.heap[small], ps.heap[i]
		i = small
	}
	return top, true
}

// pickHost returns the least-loaded live host of the pool (excluding
// skip; pass -1 for none), or -1 when the pool is saturated. The
// chosen host's view count is incremented and re-pushed.
func (c *shardCtl) pickHost(ps *poolState, skip int) int {
	var heldKey uint64
	held := false
	chosen := -1
	for {
		key, ok := ps.popHost()
		if !ok {
			break
		}
		gidx := int(uint32(key))
		cnt := int32(key >> 32)
		if !c.alive[gidx] || c.full[gidx] || cnt != c.count[gidx] {
			continue // stale or unusable entry: drop it
		}
		if gidx == skip {
			// At most one live entry can be skip; park it and re-insert
			// after the pick.
			heldKey, held = key, true
			continue
		}
		c.count[gidx]++
		ps.pushHost(gidx, c.count[gidx])
		chosen = gidx
		break
	}
	if held {
		ps.pushHost(int(uint32(heldKey)), int32(heldKey>>32))
	}
	return chosen
}

// unreserve gives a slot back to a host's view count (departure,
// failed create, cancelled migration). It must push a fresh heap entry
// — the decrement just made every existing entry for the host stale,
// and a host with only stale entries silently drops out of placement.
func (c *shardCtl) unreserve(g int) {
	c.count[g]--
	if c.alive[g] {
		c.pools[c.poolOf[g]].pushHost(g, c.count[g])
	}
}

// ---------------------------------------------------------------------------
// Controller: state transitions
// ---------------------------------------------------------------------------

// setState moves a VM between placement states, maintaining the
// transient-VM counter that gates shutdown.
func (c *shardCtl) setState(id uint32, to uint8) {
	from := c.vmState[id]
	if transient(from) {
		c.pending--
	}
	if transient(to) {
		c.pending++
	}
	c.vmState[id] = to
}

func transient(s uint8) bool { return s == vmPlacing || s == vmMigrating || s == vmDeparting }

// ---------------------------------------------------------------------------
// Controller: workload program
// ---------------------------------------------------------------------------

// RunChurn executes the spec and returns the deterministic report.
func (sc *Sharded) RunChurn(spec ChurnSpec) (*ChurnReport, error) {
	if spec.Waves <= 0 || spec.WavePeriod <= 0 {
		return nil, fmt.Errorf("cluster: churn needs waves and a wave period")
	}
	if spec.Drain <= 0 {
		spec.Drain = 10 * time.Second
	}
	c := sc.ctl
	c.spec = spec
	clk := c.shard.Clock()

	// Arrival waves, offset past t=0 so the first heartbeats land
	// before the first placement decisions.
	for w := 0; w < spec.Waves; w++ {
		at := sim.Time(0).Add(sc.heartbeat/2 + time.Duration(w)*spec.WavePeriod)
		clk.Schedule(at, c.wave)
	}
	c.wavesEnd = sim.Time(0).Add(sc.heartbeat/2 + time.Duration(spec.Waves)*spec.WavePeriod)

	// Host failures.
	for _, at := range spec.FailAt {
		clk.Schedule(sim.Time(0).Add(at), c.failRandomHost)
	}

	// Heartbeats: every host beats on a shared cadence (aligned beats
	// collapse into one engine window instead of a thousand), and the
	// controller scans for silence on the same period, offset so beats
	// land first.
	for _, a := range sc.agents {
		a.shard.Clock().Schedule(sim.Time(0).Add(sc.heartbeat), a.heartbeatTick)
	}
	clk.Schedule(sim.Time(0).Add(sc.heartbeat+sc.heartbeat/2), c.healthTick)

	// Shutdown: poll for quiescence once the waves are done; force a
	// stop at the drain deadline.
	clk.Schedule(c.wavesEnd, c.quiescePoll)

	c.report.Engine = sc.eng.Run()
	return sc.harvest()
}

// wave is one arrival round: place the next batch of every pool's VMs,
// then inject handover and departure churn.
func (c *shardCtl) wave() {
	if c.stopped {
		return
	}
	c.wavesRun++
	for pi, ps := range c.pools {
		remaining := ps.firstVM + uint32(ps.VMs) - ps.nextVM
		batch := uint32(ps.VMs / c.spec.Waves)
		if batch == 0 {
			batch = 1
		}
		if batch > remaining || c.wavesRun == c.spec.Waves {
			batch = remaining // the last wave sweeps up the remainder
		}
		for k := uint32(0); k < batch; k++ {
			id := ps.nextVM
			ps.nextVM++
			c.vmPool[id] = uint8(pi)
			c.placeVM(id)
		}
	}
	c.flushBatches()
	for i := 0; i < c.spec.MigratePerWave; i++ {
		c.migrateRandom()
	}
	for i := 0; i < c.spec.DepartPerWave; i++ {
		c.departRandom()
	}
}

// placeVM assigns a host from the VM's pool and stages the create in
// the per-host batch buffer (flushBatches sends them).
func (c *shardCtl) placeVM(id uint32) {
	ps := c.pools[c.vmPool[id]]
	gidx := c.pickHost(ps, -1)
	if gidx < 0 {
		c.report.Saturated++
		c.satQueue = append(c.satQueue, id)
		c.setState(id, vmPlacing) // transient: parked, retried on ticks
		c.vmHost[id] = -1
		return
	}
	c.vmHost[id] = int32(gidx)
	c.setState(id, vmPlacing)
	h := int32(gidx)
	if _, seen := c.batchIDs[h]; !seen {
		c.batchHosts = append(c.batchHosts, h)
	}
	c.batchIDs[h] = append(c.batchIDs[h], id)
}

// flushBatches ships the staged creates, one message per host, in
// ascending host order (send order is part of the deterministic
// delivery order).
func (c *shardCtl) flushBatches() {
	if len(c.batchHosts) == 0 {
		return
	}
	sort.Slice(c.batchHosts, func(i, j int) bool { return c.batchHosts[i] < c.batchHosts[j] })
	for _, h := range c.batchHosts {
		ids := c.batchIDs[h]
		delete(c.batchIDs, h)
		epochs := make([]uint32, len(ids))
		for i, id := range ids {
			epochs[i] = c.vmEpoch[id]
		}
		agent := c.sc.agents[h]
		c.shard.Send(agent.shard.ID(), costs.ClusterLookahead, func() {
			agent.createBatch(ids, epochs)
		})
	}
	c.batchHosts = c.batchHosts[:0]
}

// migrateRandom picks a running VM and live-migrates it to the
// least-loaded other host of its pool — the §7.1 subscriber handover.
func (c *shardCtl) migrateRandom() {
	id, ok := c.pickRunningVM()
	if !ok {
		return
	}
	ps := c.pools[c.vmPool[id]]
	src := int(c.vmHost[id])
	dst := c.pickHost(ps, src)
	if dst < 0 {
		c.report.Saturated++
		return
	}
	c.unreserve(src)
	c.setState(id, vmMigrating)
	c.vmHost[id] = int32(dst)
	c.vmFrom[id] = int32(src)
	epoch := c.vmEpoch[id]
	srcAgent, dstAgent := c.sc.agents[src], c.sc.agents[dst]
	c.shard.Send(srcAgent.shard.ID(), costs.ClusterLookahead, func() {
		srcAgent.migrateOut(id, epoch, dstAgent)
	})
}

// departRandom destroys a running VM (the subscriber leaving the
// cell), exercising teardown under churn.
func (c *shardCtl) departRandom() {
	id, ok := c.pickRunningVM()
	if !ok {
		return
	}
	gidx := int(c.vmHost[id])
	c.full[gidx] = false
	c.unreserve(gidx)
	c.setState(id, vmDeparting)
	epoch := c.vmEpoch[id]
	agent := c.sc.agents[gidx]
	c.shard.Send(agent.shard.ID(), costs.ClusterLookahead, func() {
		agent.destroyVM(id, epoch)
	})
}

// pickRunningVM draws uniformly from the assigned id space until it
// hits a placed VM (bounded attempts keep the draw cheap under heavy
// churn).
func (c *shardCtl) pickRunningVM() (uint32, bool) {
	total := uint32(0)
	for _, ps := range c.pools {
		total += ps.nextVM - ps.firstVM
	}
	if total == 0 {
		return 0, false
	}
	for attempt := 0; attempt < 16; attempt++ {
		k := uint32(c.rng.Intn(int(total)))
		var id uint32
		for _, ps := range c.pools {
			span := ps.nextVM - ps.firstVM
			if k < span {
				id = ps.firstVM + k
				break
			}
			k -= span
		}
		if c.vmState[id] == vmPlaced && c.alive[c.vmHost[id]] {
			return id, true
		}
	}
	return 0, false
}

// failRandomHost kills one random live member — the whole-machine
// failure of §7.1. The controller's scheduler side learns of it only
// through heartbeat silence.
func (c *shardCtl) failRandomHost() {
	if c.stopped {
		return
	}
	var live []int
	for g, ok := range c.alive {
		if ok {
			live = append(live, g)
		}
	}
	if len(live) <= 1 {
		return
	}
	victim := live[c.rng.Intn(len(live))]
	c.failedAt[victim] = c.shard.Clock().Now()
	c.report.HostsFailed++
	agent := c.sc.agents[victim]
	c.shard.Send(agent.shard.ID(), costs.ClusterLookahead, func() { agent.kill() })
}

// healthTick scans for heartbeat silence, declares dead members, and
// retries saturated placements. It reschedules itself until shutdown.
func (c *shardCtl) healthTick() {
	if c.stopped {
		return
	}
	now := c.shard.Clock().Now()
	for g := range c.alive {
		if !c.alive[g] {
			continue
		}
		if now.Sub(c.lastBeat[g]) > c.sc.deadAfter {
			c.declareDead(g, now)
		}
	}
	if len(c.satQueue) > 0 {
		retry := c.satQueue
		c.satQueue = nil
		for _, id := range retry {
			if c.vmState[id] == vmPlacing && c.vmHost[id] < 0 {
				c.setState(id, vmNone) // placeVM re-enters the transient state
				c.placeVM(id)
			}
		}
		c.flushBatches()
	}
	c.shard.Clock().After(c.sc.heartbeat, c.healthTick)
}

// declareDead fences a silent member and re-places everything the view
// maps to it. The fence (kill) is sent before any re-placement and the
// re-place waits two lookaheads, so by the time a replacement can boot
// the old copy is provably dead — the message-passing version of the
// lease fence's no-double-run guarantee. Stale acks from commands the
// host completed before dying are caught by the epoch bump.
func (c *shardCtl) declareDead(g int, now sim.Time) {
	c.alive[g] = false
	agent := c.sc.agents[g]
	c.shard.Send(agent.shard.ID(), costs.ClusterLookahead, func() { agent.kill() })
	failTime, injected := c.failedAt[g]
	if !injected {
		failTime = now
	}
	var lost []uint32
	for id := range c.vmState {
		st := c.vmState[id]
		if st == vmMigrating && c.vmHost[id] != int32(g) && c.vmFrom[id] == int32(g) {
			// The handover's source died: the checkpoint stream will
			// never ship (or arrives stale). Un-reserve the destination
			// and re-place fresh.
			c.unreserve(int(c.vmHost[id]))
			lost = append(lost, uint32(id))
			continue
		}
		if c.vmHost[id] != int32(g) {
			continue
		}
		switch st {
		case vmDeparting:
			// The departure completes with the host's death; don't
			// resurrect a subscriber who already left.
			c.setState(uint32(id), vmGone)
		case vmPlaced, vmPlacing, vmMigrating:
			lost = append(lost, uint32(id))
		}
	}
	for _, id := range lost {
		c.vmEpoch[id]++
		c.setState(id, vmPlacing)
		c.vmHost[id] = -1
		c.vmFailedAt[id] = failTime
	}
	c.report.Failovers += len(lost)
	// Re-place after the fence has provably landed.
	c.shard.Clock().After(2*costs.ClusterLookahead, func() {
		for _, id := range lost {
			if c.vmState[id] == vmPlacing && c.vmHost[id] < 0 {
				c.setState(id, vmNone)
				c.placeVM(id)
			}
		}
		c.flushBatches()
	})
}

// quiescePoll stops the run once every VM has settled (or at the drain
// deadline, whichever comes first).
func (c *shardCtl) quiescePoll() {
	if c.stopped {
		return
	}
	now := c.shard.Clock().Now()
	deadline := c.wavesEnd.Add(c.spec.Drain)
	if c.pending == 0 || now >= deadline {
		c.stopAll()
		return
	}
	c.shard.Clock().After(c.sc.heartbeat, c.quiescePoll)
}

// stopAll broadcasts the stop: hosts cancel their heartbeat loops, the
// controller cancels its ticks, and the engine drains to quiescence.
func (c *shardCtl) stopAll() {
	c.stopped = true
	for _, a := range c.sc.agents {
		agent := a
		c.shard.Send(agent.shard.ID(), costs.ClusterLookahead, func() { agent.stop() })
	}
}

// ---------------------------------------------------------------------------
// Controller: ack handlers (run on shard 0 via host Sends)
// ---------------------------------------------------------------------------

// onBeat records a member's heartbeat.
func (c *shardCtl) onBeat(g int, sentAt sim.Time) {
	if sentAt > c.lastBeat[g] {
		c.lastBeat[g] = sentAt
	}
}

// onCreateAck settles a create batch: ok ids become placed, failed ids
// mark the host full and re-place elsewhere, stale ids (epoch moved —
// the VM was failed over while the command was in flight) get their
// orphan reaped on the acking host.
func (c *shardCtl) onCreateAck(g int, ids []uint32, epochs []uint32, latMS []float64, failed []bool) {
	agent := c.sc.agents[g]
	ackTime := c.shard.Clock().Now()
	li := 0
	for i, id := range ids {
		if epochs[i] != c.vmEpoch[id] {
			// Stale: the controller re-owned this VM while the create
			// was in flight. Reap the orphan copy.
			if !failed[i] {
				li++
				c.report.Fenced++
				c.shard.Send(agent.shard.ID(), costs.ClusterLookahead, func() { agent.reap(id) })
			}
			continue
		}
		if failed[i] {
			c.full[g] = true
			c.unreserve(g)
			c.setState(id, vmNone)
			c.placeVM(id)
			continue
		}
		lat := latMS[li]
		li++
		if c.vmState[id] != vmPlacing {
			continue // departed/failed-over meanwhile with same epoch: impossible, but stay safe
		}
		c.setState(id, vmPlaced)
		ps := c.pools[c.vmPool[id]]
		ps.report.Created++
		ps.report.CreateMS.Add(lat)
		if t0, ok := c.vmFailedAt[id]; ok {
			c.report.FailoverMS.Add(float64(ackTime.Sub(t0)) / float64(time.Millisecond))
			delete(c.vmFailedAt, id)
		}
	}
	c.flushBatches()
}

// onDestroyAck settles a departure.
func (c *shardCtl) onDestroyAck(id uint32, epoch uint32) {
	if epoch != c.vmEpoch[id] || c.vmState[id] != vmDeparting {
		return
	}
	c.setState(id, vmGone)
}

// onMigrateAck settles a handover: the destination restored the
// checkpoint at doneAt; t0 is when the source began the save.
func (c *shardCtl) onMigrateAck(dstG int, id uint32, epoch uint32, t0, doneAt sim.Time) {
	agent := c.sc.agents[dstG]
	if epoch != c.vmEpoch[id] || c.vmState[id] != vmMigrating {
		c.report.Fenced++
		c.shard.Send(agent.shard.ID(), costs.ClusterLookahead, func() { agent.reap(id) })
		return
	}
	c.setState(id, vmPlaced)
	ps := c.pools[c.vmPool[id]]
	ps.report.Migrations++
	ps.report.MigrateMS.Add(float64(doneAt.Sub(t0)) / float64(time.Millisecond))
}

// onMigrateNack handles a handover that could not even start (source
// lost the VM): the VM is re-placed fresh.
func (c *shardCtl) onMigrateNack(id uint32, epoch uint32) {
	if epoch != c.vmEpoch[id] || c.vmState[id] != vmMigrating {
		return
	}
	c.vmEpoch[id]++
	c.unreserve(int(c.vmHost[id])) // give the destination its slot back
	c.setState(id, vmNone)
	c.placeVM(id)
	c.flushBatches()
}

// ---------------------------------------------------------------------------
// Host agent handlers (run on the host's shard)
// ---------------------------------------------------------------------------

// vmName renders the canonical VM name for an id (pool prefix + id).
func (a *hostAgent) vmName(id uint32) string {
	a.nameBuf = append(a.nameBuf[:0], 'v')
	a.nameBuf = strconv.AppendUint(a.nameBuf, uint64(id), 10)
	return string(a.nameBuf)
}

// heartbeatTick is the host's periodic report. The liveness ping
// always goes out — it is served below the toolstack (a raw socket on
// the member's management interface), so a busy control plane must not
// look like a dead machine: a host mid-way through a 24-VM failover
// batch would otherwise silently miss DeadAfter and get its whole pool
// declared dead. Only the toolstack *state snapshot* defers when the
// tick fires from a clock advance nested inside an operation (see
// opDepth) — reporting from there would read structures the operation
// is mid-way through mutating.
func (a *hostAgent) heartbeatTick() {
	if a.dead || a.stopped {
		return // no reschedule: the loop ends here
	}
	if a.opDepth > 0 {
		a.deferredBeats++ // snapshot deferred; the ping below still goes
	}
	now := a.shard.Clock().Now()
	g := a.gidx
	ctl := a.sc.ctl
	a.shard.Send(0, costs.ClusterLookahead, func() { ctl.onBeat(g, now) })
	a.shard.Clock().After(a.sc.heartbeat, a.heartbeatTick)
}

// createBatch boots a batch of VMs and acks the controller with
// per-VM creation latencies (virtual ms) and failures.
func (a *hostAgent) createBatch(ids []uint32, epochs []uint32) {
	a.exec(func() { a.startCreateBatch(ids, epochs) })
}

func (a *hostAgent) startCreateBatch(ids []uint32, epochs []uint32) {
	if a.dead || a.stopped {
		return // silence; the controller recovers via failover
	}
	clk := a.shard.Clock()
	lats := make([]float64, 0, len(ids))
	failed := make([]bool, len(ids))
	if !a.flavorReady {
		a.flavorReady = true
		if err := a.host.EnsureFlavor(a.img, a.mode); err != nil {
			for i := range failed {
				failed[i] = true
			}
			a.ackCreates(ids, epochs, lats, failed)
			return
		}
	}
	// One create per clock event, chained: a batch of hundreds of xl
	// creates spans minutes of virtual time, and running it inside a
	// single handler would make the host catatonic for that span —
	// heartbeats would bunch up at the next window barrier and a fence
	// kill could not land between creates, so the controller would see
	// a live-looking host long after it died. Stepping the batch keeps
	// the host responsive between creates while each individual create
	// still holds opDepth (its boot sleeps defer the state snapshot).
	i := 0
	var step func()
	step = func() {
		if a.dead || a.stopped {
			return // died mid-batch: no ack, failover re-owns the rest
		}
		if i == len(ids) {
			_ = a.host.Replenish() // the chaos daemon's background beat
			a.ackCreates(ids, epochs, lats, failed)
			return
		}
		a.opDepth++
		t0 := clk.Now()
		if _, err := a.host.CreateVM(a.mode, a.vmName(ids[i]), a.img); err != nil {
			failed[i] = true
		} else {
			lats = append(lats, float64(clk.Now().Sub(t0))/float64(time.Millisecond))
		}
		a.opDepth--
		i++
		clk.After(0, func() { a.exec(step) })
	}
	step()
}

func (a *hostAgent) ackCreates(ids []uint32, epochs []uint32, lats []float64, failed []bool) {
	g := a.gidx
	ctl := a.sc.ctl
	a.shard.Send(0, costs.ClusterLookahead, func() { ctl.onCreateAck(g, ids, epochs, lats, failed) })
}

// destroyVM tears one guest down and acks.
func (a *hostAgent) destroyVM(id uint32, epoch uint32) {
	a.exec(func() { a.doDestroyVM(id, epoch) })
}

func (a *hostAgent) doDestroyVM(id uint32, epoch uint32) {
	if a.dead || a.stopped {
		return
	}
	if vm, err := a.host.Env.VM(a.vmName(id)); err == nil {
		a.opDepth++
		_ = a.host.DestroyVM(vm)
		a.opDepth--
	}
	ctl := a.sc.ctl
	a.shard.Send(0, costs.ClusterLookahead, func() { ctl.onDestroyAck(id, epoch) })
}

// reap destroys an orphaned copy without acking (fence cleanup).
func (a *hostAgent) reap(id uint32) {
	a.exec(func() { a.doReap(id) })
}

func (a *hostAgent) doReap(id uint32) {
	if a.dead || a.stopped {
		return
	}
	if vm, err := a.host.Env.VM(a.vmName(id)); err == nil {
		a.opDepth++
		_ = a.host.DestroyVM(vm)
		a.opDepth--
	}
}

// migrateOut is the source half of a handover: suspend and checkpoint
// the guest on this host's timeline, then stream the checkpoint to the
// destination shard, charging the wire.
func (a *hostAgent) migrateOut(id uint32, epoch uint32, dst *hostAgent) {
	a.exec(func() { a.doMigrateOut(id, epoch, dst) })
}

func (a *hostAgent) doMigrateOut(id uint32, epoch uint32, dst *hostAgent) {
	ctl := a.sc.ctl
	if a.dead || a.stopped {
		return
	}
	vm, err := a.host.Env.VM(a.vmName(id))
	if err != nil {
		a.shard.Send(0, costs.ClusterLookahead, func() { ctl.onMigrateNack(id, epoch) })
		return
	}
	t0 := a.shard.Clock().Now()
	a.opDepth++
	cp, _, err := migrate.Save(a.host.Env, vm)
	a.opDepth--
	if err != nil {
		a.shard.Send(0, costs.ClusterLookahead, func() { ctl.onMigrateNack(id, epoch) })
		return
	}
	wire := costs.ClusterLookahead + migrate.StreamCost(cp)
	a.shard.Send(dst.shard.ID(), wire, func() { dst.receiveMigration(cp, id, epoch, t0) })
}

// receiveMigration is the destination half: restore the checkpoint on
// this host's timeline and ack the controller.
func (a *hostAgent) receiveMigration(cp *migrate.Checkpoint, id uint32, epoch uint32, t0 sim.Time) {
	a.exec(func() { a.doReceiveMigration(cp, id, epoch, t0) })
}

func (a *hostAgent) doReceiveMigration(cp *migrate.Checkpoint, id uint32, epoch uint32, t0 sim.Time) {
	ctl := a.sc.ctl
	if a.dead || a.stopped {
		return // controller recovers via failover of this host
	}
	a.opDepth++
	_, _, err := migrate.Restore(a.host.Env, cp)
	a.opDepth--
	g := a.gidx
	if err != nil {
		a.shard.Send(0, costs.ClusterLookahead, func() { ctl.onMigrateNack(id, epoch) })
		return
	}
	doneAt := a.shard.Clock().Now()
	a.shard.Send(0, costs.ClusterLookahead, func() { ctl.onMigrateAck(g, id, epoch, t0, doneAt) })
}

// kill is the fence: a whole-machine death (or a declared death made
// true). Idempotent.
func (a *hostAgent) kill() {
	if a.dead {
		return
	}
	// The flag flips immediately — even mid-operation — so in-flight
	// batch chains abort at their next step; the env teardown itself
	// waits its turn in the op queue.
	a.dead = true
	a.exec(func() { a.host.Env.MarkDead() })
}

// stop ends the host's background loops for shutdown.
func (a *hostAgent) stop() { a.stopped = true }

// ---------------------------------------------------------------------------
// Harvest
// ---------------------------------------------------------------------------

// harvest assembles the report after the engine has quiesced. The
// surviving hosts' audits run as one more engine window: each live
// agent's Fsck is an event on its own shard at the makespan, so the
// engine's workers audit the hosts in parallel, and the counts are
// summed in agent order afterwards. Fsck is clock-free, so the window
// moves no figure; the makespan is read before it, and the engine
// statistics were captured when the run returned.
func (sc *Sharded) harvest() (*ChurnReport, error) {
	c := sc.ctl
	rep := &c.report
	end := sc.eng.MaxTime()
	rep.MakespanMS = float64(end) / float64(time.Millisecond)
	for _, ps := range c.pools {
		placed := 0
		for id := ps.firstVM; id < ps.firstVM+uint32(ps.VMs); id++ {
			if c.vmState[id] == vmPlaced {
				placed++
			}
			if transient(c.vmState[id]) {
				rep.Unplaced++
			}
		}
		ps.report.Placed = placed
		rep.Pools = append(rep.Pools, ps.report)
	}
	violated := make([]int, len(sc.agents))
	for i, a := range sc.agents {
		rep.DeferredBeats += a.deferredBeats
		if !a.dead {
			a.shard.Clock().Schedule(end, func() { violated[i] = len(toolstack.Fsck(a.host.Env)) })
		}
	}
	sc.eng.Run()
	for _, n := range violated {
		rep.FsckViolated += n
	}
	return rep, nil
}
