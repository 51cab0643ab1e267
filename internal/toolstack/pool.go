package toolstack

import (
	"slices"
	"sort"
	"strconv"

	"lightvm/internal/costs"
	"lightvm/internal/faults"
	"lightvm/internal/guest"
	"lightvm/internal/hv"
	"lightvm/internal/sim"
	"lightvm/internal/xenbus"
	"lightvm/internal/xenstore"
)

// Flavor identifies a class of pre-creatable domain shells: the image
// (for memory size and — with dedup — the shared region), device set,
// and device path. VMs of the same flavor can share a shell, "similar
// to OpenStack's flavors" (§5.2).
type Flavor struct {
	Img     guest.Image
	Store   bool // devices via XenStore (true) or noxs (false)
	Devices []guest.DeviceSpec
}

// key is the flavor's registry key (see appendFlavorKey).
func (f Flavor) key() string { return string(appendFlavorKey(nil, &f.Img, f.Store)) }

// appendFlavorKey appends the registry key of flavorFor(img, store) to
// b: "<image>/<memory bytes>/<store>/<device kind>..." over the
// flavor's devices (device kinds matter, MACs don't). The pool's
// replenish and reap schedules run in sorted key order, so these bytes
// are part of every timeline.
func appendFlavorKey(b []byte, img *guest.Image, store bool) []byte {
	b = append(b, img.Name...)
	b = append(b, '/')
	b = strconv.AppendUint(b, img.MemBytes, 10)
	b = append(b, '/')
	b = strconv.AppendBool(b, store)
	for _, d := range img.Devices {
		b = append(b, '/')
		b = append(b, d.Kind.String()...)
	}
	if !store {
		b = append(b, '/')
		b = append(b, hv.DevSysctl.String()...)
	}
	return b
}

// flavorFor derives the shell flavor for an image under a device path.
// Its devices are the image's, plus — on the noxs path — the sysctl
// power device noxs guests always carry (§5.1), last.
func flavorFor(img guest.Image, store bool) Flavor {
	devs := make([]guest.DeviceSpec, len(img.Devices))
	copy(devs, img.Devices)
	if !store {
		devs = append(devs, guest.DeviceSpec{Kind: hv.DevSysctl})
	}
	return Flavor{Img: img, Store: store, Devices: devs}
}

// Shell is a pre-created domain: hypervisor reservation done, memory
// populated, devices pre-created — everything from Fig. 8's prepare
// phase. The execute phase only parses config, finalizes devices,
// builds the image and boots.
type Shell struct {
	Dom  *hv.Domain
	Core int
	// flavor is what the shell was built for: its registry entry's
	// flavor. Only its device path and device kinds are read back, and
	// those are fixed by the key, so a later registration of the key
	// never changes them.
	flavor *Flavor
}

// flavorEntry is one registered flavor: its key, the flavor as last
// taken or registered, and its ready shells.
type flavorEntry struct {
	key    string
	flavor Flavor
	shells []*Shell
}

// PoolStats reports pool behaviour for tests and benchmarks.
type PoolStats struct {
	Prepared int // shells built by the daemon
	Taken    int // shells handed to the execute phase
	Misses   int // Take calls that found the pool empty
	Crashes  int // injected daemon crashes (pool drained each time)
}

// Pool is the chaos daemon's shell pool: "the daemon ensures that
// there is always a certain (configurable) number of shells available
// in the system" (§5.2). Replenish is the daemon's background beat;
// the experiment harness invokes it between measured creations, which
// is exactly when the real daemon gets the CPU.
type Pool struct {
	env     *Env
	target  int
	flavors map[string]*flavorEntry
	order   []*flavorEntry // sorted by key: the replenish and reap order
	keyBuf  []byte         // scratch key for lookups
	Stats   PoolStats

	// downUntil is when the restarted daemon comes back after an
	// injected crash; until then Take misses and Replenish is a no-op,
	// so creations fall back to the inline (cold) prepare path.
	downUntil sim.Time
}

// NewPool creates an empty pool with a default target depth of 8.
func NewPool(env *Env) *Pool {
	return &Pool{env: env, target: 8, flavors: make(map[string]*flavorEntry)}
}

// lookup builds the key of flavorFor(img, store) into p.keyBuf and
// returns its registry entry, or nil. The map index does not allocate.
func (p *Pool) lookup(img *guest.Image, store bool) *flavorEntry {
	p.keyBuf = appendFlavorKey(p.keyBuf[:0], img, store)
	return p.flavors[string(p.keyBuf)]
}

// claim returns the registry entry of flavorFor(img, store): a new
// one, or the existing one with its image replaced — the last Take or
// Register of a key wins. Only a new key builds a Flavor.
func (p *Pool) claim(img guest.Image, store bool) *flavorEntry {
	if ent := p.lookup(&img, store); ent != nil {
		ent.flavor.Img = img
		return ent
	}
	ent := &flavorEntry{key: string(p.keyBuf), flavor: flavorFor(img, store)}
	p.flavors[ent.key] = ent
	i := sort.Search(len(p.order), func(i int) bool { return p.order[i].key > ent.key })
	p.order = append(p.order, nil)
	copy(p.order[i+1:], p.order[i:])
	p.order[i] = ent
	return ent
}

// SetTarget configures the per-flavor shell depth. Negative depths
// clamp to zero.
func (p *Pool) SetTarget(n int) {
	if n < 0 {
		n = 0
	}
	p.target = n
}

// Target reports the configured per-flavor shell depth.
func (p *Pool) Target() int {
	return p.target
}

// Available reports ready shells for img's flavor on a device path
// (store: devices via XenStore, else noxs).
func (p *Pool) Available(img guest.Image, store bool) int {
	if ent := p.lookup(&img, store); ent != nil {
		return len(ent.shells)
	}
	return 0
}

// ShellDomIDs lists the domains backing every pooled shell, sorted.
// The scrubber and the invariant checker cross-reference it: pooled
// shells are live control-plane state, not orphans.
func (p *Pool) ShellDomIDs() []hv.DomID {
	n := 0
	for _, ent := range p.order {
		n += len(ent.shells)
	}
	out := make([]hv.DomID, 0, n)
	for _, ent := range p.order {
		for _, s := range ent.shells {
			out = append(out, s.Dom.ID)
		}
	}
	slices.Sort(out)
	return out
}

// Register records img's flavor on a device path for Replenish to keep
// stocked, without
// consuming a shell. Callers that only want the pool primed (EnsureFlavor,
// placement probes) use this instead of a throwaway Take — taking a
// shell with nowhere to put it back would orphan its domain.
func (p *Pool) Register(img guest.Image, store bool) {
	p.claim(img, store)
}

// DaemonDown reports whether the pool daemon is currently dead (an
// injected crash whose restart window has not elapsed yet).
func (p *Pool) DaemonDown() bool { return p.env.Clock.Now() < p.downUntil }

// crash models the chaos daemon dying: its in-memory shell bookkeeping
// is lost, so the restarted daemon reaps every orphaned shell, and the
// pool stays empty until the restart completes. Flavors are reaped in
// sorted key order to keep the reap schedule deterministic.
func (p *Pool) crash() {
	e := p.env
	for _, ent := range p.order {
		for _, s := range ent.shells {
			p.reap(s)
		}
		ent.shells = nil
	}
	p.Stats.Crashes++
	p.downUntil = e.Clock.Now().Add(costs.PoolDaemonRestart)
	e.Trace.Emit("pool", "crash", "", "", 0)
}

// reap tears down one orphaned shell: device state (store or noxs) and
// the pre-created domain.
func (p *Pool) reap(s *Shell) {
	e := p.env
	e.RemoveDevices(s.Dom.ID, s.flavor.Devices, s.flavor.Store)
	_ = e.HV.DestroyDomain(s.Dom.ID)
}

// Take removes one shell of img's flavor on a device path, or returns
// nil on a pool miss (the caller then prepares inline, paying the full
// cost). The flavor is remembered so Replenish keeps it stocked.
func (p *Pool) Take(img guest.Image, store bool) *Shell {
	ent := p.claim(img, store)
	if p.env.Faults.Fire(faults.KindDaemonCrash) {
		p.crash()
	}
	if p.DaemonDown() {
		p.Stats.Misses++
		p.env.Trace.Emit("pool", "miss", ent.key, "daemon-down", 0)
		return nil
	}
	if len(ent.shells) == 0 {
		p.Stats.Misses++
		p.env.Trace.Emit("pool", "miss", ent.key, "", 0)
		return nil
	}
	s := ent.shells[0]
	ent.shells[0] = nil
	ent.shells = ent.shells[1:]
	p.Stats.Taken++
	p.env.Clock.Sleep(costs.ShellPoolHit)
	return s
}

// Replenish tops every known flavor up to the target depth (in sorted
// key order, so the prepare schedule is deterministic however flavors
// were registered), charging the prepare work to the current
// (background) time. While the daemon is down after a crash there is
// nobody to do the work.
func (p *Pool) Replenish() error { return p.ReplenishUntil(0) }

// ReplenishUntil is Replenish bounded by a clock deadline: the daemon
// stops starting new prepares once the clock reaches it (the prepare
// in flight still completes — shell builds don't abort halfway). A
// serving loop passes the next request's arrival time, modeling the
// background daemon yielding the control plane to foreground work
// instead of batching an unbounded top-up into one beat and queueing
// every arrival behind it. deadline 0 means no bound.
func (p *Pool) ReplenishUntil(deadline sim.Time) error {
	if p.DaemonDown() {
		return nil
	}
	for _, ent := range p.order {
		for len(ent.shells) < p.target {
			if deadline > 0 && p.env.Clock.Now() >= deadline {
				return nil
			}
			s, err := p.prepare(&ent.flavor, &ent.flavor.Img)
			if err != nil {
				return err
			}
			ent.shells = append(ent.shells, s)
		}
	}
	return nil
}

// Prepare runs the prepare phase for one shell of img's flavor on a
// device path, populated from img: hypervisor reservation, compute
// allocation, memory reservation + preparation, and device
// pre-creation (Fig. 8 steps 1–5). It is the inline path after a Take
// miss; the shell goes to the caller, not the pool.
func (p *Pool) Prepare(img guest.Image, store bool) (*Shell, error) {
	if ent := p.lookup(&img, store); ent != nil {
		return p.prepare(&ent.flavor, &img)
	}
	f := flavorFor(img, store)
	return p.prepare(&f, &img)
}

// prepare builds a shell of flavor f populated from img (f's image, or
// the caller's for an inline prepare: the two agree on every key
// field). A shell being prepared is journaled under "shell:<domid>" —
// if the daemon crashes at a crash point the half-built shell leaks (no
// rollback) and recovery reaps it from the journal; it never enters the
// pool, so it cannot also be reaped by a later daemon-crash drain.
func (p *Pool) prepare(f *Flavor, img *guest.Image) (*Shell, error) {
	e := p.env
	core := e.Sched.Place()
	dom, err := e.HV.CreateDomain(hv.Config{MaxMem: img.MemBytes, VCPUs: 1, Cores: []int{core}})
	if err != nil {
		return nil, err
	}
	key := "shell:" + strconv.Itoa(int(dom.ID))
	e.journalSet(f.Store, key, journalOpPrepare, "devices", dom.ID)
	if cerr := e.crashPoint("pool.prepare.hv"); cerr != nil {
		return nil, cerr
	}
	rollback := func(err error) error {
		err = e.rollbackDomain(err, f.Store, key, dom.ID)
		e.journalClear(f.Store, key)
		return err
	}
	if err := e.PopulateGuest(dom.ID, *img); err != nil {
		return nil, rollback(err)
	}
	// Shells are built before any guest claims them: devices get blank
	// MACs (finalizeDevices sets the real ones), and a noxs flavor's
	// sysctl device sits at its index in the flavor, after the rest.
	for i, dev := range f.Devices {
		if f.Store {
			_, err = e.StoreDeviceCreate(dom.ID, i, dev.Kind, "")
		} else {
			_, err = e.Noxs.CreateDevice(dom.ID, dev.Kind, i, "")
		}
		if err != nil {
			return nil, rollback(err)
		}
	}
	if cerr := e.crashPoint("pool.prepare.devices"); cerr != nil {
		return nil, cerr
	}
	e.Clock.Sleep(costs.ShellPrepare)
	p.Stats.Prepared++
	e.journalClear(f.Store, key)
	if e.Trace != nil {
		e.Trace.Emit("pool", "prepare", f.key(), "", 0)
	}
	return &Shell{Dom: dom, Core: core, flavor: f}, nil
}

// finalizeDevices is the execute phase's "device initialization": set
// the real MACs on the pre-created devices. The crash point models the
// toolstack dying between taking the shell and finishing it: the shell
// is already out of the pool, so only the taker's journal record knows
// about the domain.
func (p *Pool) finalizeDevices(s *Shell, img guest.Image) error {
	e := p.env
	if err := e.crashPoint("pool.finalize"); err != nil {
		return err
	}
	if s.flavor.Store {
		domPath := xenbus.DomainPath(s.Dom.ID)
		return e.Store.Txn(8, func(tx *xenstore.Tx) error {
			for i, dev := range img.Devices {
				if dev.Kind == hv.DevVif {
					tx.WriteAt(xenbus.FrontendPath(s.Dom.ID, dev.Kind, i), "mac", dev.MAC)
				}
			}
			tx.WriteAt(domPath, "domid", strconv.Itoa(int(s.Dom.ID)))
			return nil
		})
	}
	for i, dev := range img.Devices {
		if dev.Kind == hv.DevVif {
			if err := e.Noxs.SetMAC(s.Dom.ID, dev.Kind, i, dev.MAC); err != nil {
				return err
			}
		}
	}
	return nil
}
