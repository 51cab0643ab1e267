package hv

import (
	"errors"
	"testing"
	"unsafe"

	"lightvm/internal/costs"
	"lightvm/internal/mm"
	"lightvm/internal/sim"
)

const mib = 1024 * 1024

func newHV() *Hypervisor {
	return New(sim.NewClock(), 8*1024*mib)
}

func TestNewReservesDom0(t *testing.T) {
	h := newHV()
	if h.NumDomains() != 0 {
		t.Fatalf("fresh hypervisor has %d guests", h.NumDomains())
	}
	d0, err := h.Domain(0)
	if err != nil {
		t.Fatal(err)
	}
	if d0.State != StateRunning {
		t.Fatalf("Dom0 state %v", d0.State)
	}
	if h.UsedMemBytes() == 0 {
		t.Fatal("Dom0 memory not reserved")
	}
}

// TestDomainSize pins the hypervisor's per-guest record at 120 bytes
// on 64-bit platforms (the 128-byte allocator size class): density
// runs keep thousands of domains live (Fig. 10).
func TestDomainSize(t *testing.T) {
	if got := unsafe.Sizeof(Domain{}); got > 120 {
		t.Fatalf("Domain is %d bytes, budget 120", got)
	}
}

// TestTableEntrySizes pins the per-device records on 64-bit platforms:
// a device-page entry at 40 bytes (a vif+sysctl page fills the 80-byte
// size class), and the grant and event-channel table slots at 24 and
// 32 bytes. Every guest carries at least two of each.
func TestTableEntrySizes(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"DevEntry", unsafe.Sizeof(DevEntry{}), 40},
		{"grant", unsafe.Sizeof(grant{}), 24},
		{"channel", unsafe.Sizeof(channel{}), 32},
	} {
		if c.got > c.want {
			t.Errorf("%s is %d bytes, budget %d", c.name, c.got, c.want)
		}
	}
}

func TestDomainLifecycle(t *testing.T) {
	h := newHV()
	d, err := h.CreateDomain(Config{MaxMem: 8 * mib, VCPUs: 1, Cores: []int{1}})
	if err != nil {
		t.Fatal(err)
	}
	if d.State != StateCreated {
		t.Fatalf("state after create: %v", d.State)
	}
	if err := h.PopulatePhysmap(d.ID, 8*mib); err != nil {
		t.Fatal(err)
	}
	if d.MemBytes != 8*mib {
		t.Fatalf("MemBytes = %d", d.MemBytes)
	}
	if err := h.LoadImage(d.ID, 480*1024); err != nil {
		t.Fatal(err)
	}
	if d.State != StatePaused {
		t.Fatalf("state after load: %v", d.State)
	}
	if err := h.Unpause(d.ID); err != nil {
		t.Fatal(err)
	}
	if d.State != StateRunning {
		t.Fatalf("state after unpause: %v", d.State)
	}
	used := h.UsedMemBytes()
	if err := h.DestroyDomain(d.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Domain(d.ID); !errors.Is(err, ErrNoSuchDomain) {
		t.Fatalf("destroyed domain still resolvable: %v", err)
	}
	if h.UsedMemBytes() >= used {
		t.Fatal("destroy did not release memory")
	}
}

func TestLoadImageRequiresPopulatedMemory(t *testing.T) {
	h := newHV()
	d, _ := h.CreateDomain(Config{MaxMem: mib})
	if err := h.LoadImage(d.ID, mib); err == nil {
		t.Fatal("image load into unpopulated domain accepted")
	}
}

func TestUnpauseRequiresImage(t *testing.T) {
	h := newHV()
	d, _ := h.CreateDomain(Config{MaxMem: mib})
	if err := h.Unpause(d.ID); !errors.Is(err, ErrBadState) {
		t.Fatalf("unpause of unbuilt domain: %v", err)
	}
}

func TestDestroyDom0Refused(t *testing.T) {
	h := newHV()
	if err := h.DestroyDomain(0); !errors.Is(err, ErrNotPrivileged) {
		t.Fatalf("Dom0 destroy: %v", err)
	}
}

func TestVCPUPinningRoundRobin(t *testing.T) {
	h := newHV()
	d, _ := h.CreateDomain(Config{MaxMem: mib, VCPUs: 5, Cores: []int{2, 3}})
	want := []int{2, 3, 2, 3, 2}
	for i, v := range d.VCPUs {
		if v.Core != want[i] {
			t.Fatalf("vcpu %d pinned to core %d, want %d", i, v.Core, want[i])
		}
	}
}

func TestDomainIDsSorted(t *testing.T) {
	h := newHV()
	for i := 0; i < 5; i++ {
		if _, err := h.CreateDomain(Config{MaxMem: mib}); err != nil {
			t.Fatal(err)
		}
	}
	var ids []DomID
	h.EachDomain(func(id DomID) { ids = append(ids, id) })
	if len(ids) != 5 {
		t.Fatalf("EachDomain visited %d domains", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("ids not ascending: %v", ids)
		}
	}
	if err := h.DestroyDomain(ids[4]); err != nil {
		t.Fatal(err)
	}
	if lim := h.DomIDLimit(); lim != ids[4]+1 {
		t.Fatalf("DomIDLimit = %d after destroying the newest domain %d, want %d", lim, ids[4], ids[4]+1)
	}
}

func TestHypercallsAdvanceClock(t *testing.T) {
	clock := sim.NewClock()
	h := New(clock, 8*1024*mib)
	before := clock.Now()
	d, _ := h.CreateDomain(Config{MaxMem: 8 * mib})
	_ = h.PopulatePhysmap(d.ID, 8*mib)
	if clock.Now() <= before {
		t.Fatal("hypercalls did not consume virtual time")
	}
	if h.Count.Hypercalls < 2 {
		t.Fatalf("hypercall counter = %d", h.Count.Hypercalls)
	}
}

func TestEventChannelFlow(t *testing.T) {
	h := newHV()
	d, _ := h.CreateDomain(Config{MaxMem: mib})
	p, err := h.AllocUnboundPort(0, d.ID)
	if err != nil {
		t.Fatal(err)
	}
	fired := 0
	if err := h.BindPort(p, d.ID, func() { fired++ }); err != nil {
		t.Fatal(err)
	}
	if err := h.Send(p); err != nil {
		t.Fatal(err)
	}
	if fired != 1 {
		t.Fatalf("handler fired %d times", fired)
	}
	if h.PortPending(p) != 1 {
		t.Fatalf("pending = %d", h.PortPending(p))
	}
	if err := h.ClosePort(p); err != nil {
		t.Fatal(err)
	}
	if err := h.Send(p); err == nil {
		t.Fatal("send on closed port succeeded")
	}
}

func TestBindPortWrongPeerRejected(t *testing.T) {
	h := newHV()
	d, _ := h.CreateDomain(Config{MaxMem: mib})
	e, _ := h.CreateDomain(Config{MaxMem: mib})
	p, _ := h.AllocUnboundPort(0, d.ID)
	if err := h.BindPort(p, e.ID, func() {}); err == nil {
		t.Fatal("bind from wrong peer accepted")
	}
}

// TestSendUnboundRunsNoHandler: a send on a port nobody has bound, or
// bound with a nil handler, charges the upcall and counts as pending
// but runs nothing.
func TestSendUnboundRunsNoHandler(t *testing.T) {
	clock := sim.NewClock()
	h := New(clock, 8*1024*mib)
	d, _ := h.CreateDomain(Config{MaxMem: mib})
	p, _ := h.AllocUnboundPort(0, d.ID)
	send := func(wantPending uint64) {
		t.Helper()
		before, calls := clock.Now(), h.Count.Hypercalls
		if err := h.Send(p); err != nil {
			t.Fatal(err)
		}
		if got, want := clock.Now().Sub(before), costs.Hypercall+costs.SoftIRQ; got != want {
			t.Fatalf("send charged %v, want %v", got, want)
		}
		if h.Count.Hypercalls != calls+1 {
			t.Fatalf("send made %d hypercalls", h.Count.Hypercalls-calls)
		}
		if got := h.PortPending(p); got != wantPending {
			t.Fatalf("pending = %d, want %d", got, wantPending)
		}
	}
	send(1)
	if err := h.BindPort(p, d.ID, nil); err != nil {
		t.Fatal(err)
	}
	send(2)
}

func TestGrantFlow(t *testing.T) {
	h := newHV()
	d, _ := h.CreateDomain(Config{MaxMem: mib})
	r, err := h.GrantAccess(d.ID, 0, 0x1000)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := h.MapGrant(r, 0)
	if err != nil {
		t.Fatal(err)
	}
	if frame != 0x1000 {
		t.Fatalf("mapped frame %#x", frame)
	}
	if _, err := h.MapGrant(r, DomID(99)); err == nil {
		t.Fatal("map by wrong peer accepted")
	}
	if err := h.EndGrant(r); err != nil {
		t.Fatal(err)
	}
	if _, err := h.MapGrant(r, 0); err == nil {
		t.Fatal("map of revoked grant accepted")
	}
}

func TestDestroyCleansChannelsAndGrants(t *testing.T) {
	h := newHV()
	d, _ := h.CreateDomain(Config{MaxMem: mib})
	_ = h.PopulatePhysmap(d.ID, mib)
	p, _ := h.AllocUnboundPort(d.ID, 0)
	r, _ := h.GrantAccess(d.ID, 0, 1)
	if err := h.DestroyDomain(d.ID); err != nil {
		t.Fatal(err)
	}
	if err := h.Send(p); err == nil {
		t.Fatal("channel survived domain destroy")
	}
	if _, err := h.MapGrant(r, 0); err == nil {
		t.Fatal("grant survived domain destroy")
	}
	if h.NumPorts() != 0 || h.NumGrants() != 0 {
		t.Fatalf("leak: ports=%d grants=%d", h.NumPorts(), h.NumGrants())
	}
}

func TestDevicePage(t *testing.T) {
	h := newHV()
	d, _ := h.CreateDomain(Config{MaxMem: mib})
	e := DevEntry{Kind: DevVif, Index: 0, Evtchn: 7, CtrlGrant: 9, MAC: "00:16:3e:00:00:01"}
	if err := h.DevicePageWrite(0, d.ID, e); err != nil {
		t.Fatal(err)
	}
	got, err := h.DevicePageMap(d.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].MAC != e.MAC || got[0].Evtchn != 7 {
		t.Fatalf("device page read %+v", got)
	}
	// Snapshot semantics: mutating the returned slice must not affect
	// the page.
	got[0].MAC = "mutated"
	got2, _ := h.DevicePageMap(d.ID, nil)
	if got2[0].MAC != e.MAC {
		t.Fatal("DevicePageMap returned aliased storage")
	}
	if err := h.DevicePageRemove(0, d.ID, DevVif, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.DevicePageRemove(0, d.ID, DevVif, 0); err == nil {
		t.Fatal("double remove accepted")
	}
}

// TestDevicePageMapAppendsSnapshot: the map appends after dst's own
// elements, later page edits leave what it returned unchanged, and it
// charges one NoxsDevicePageMap hypercall whether or not the page has
// entries.
func TestDevicePageMapAppendsSnapshot(t *testing.T) {
	clock := sim.NewClock()
	h := New(clock, 8*1024*mib)
	d, _ := h.CreateDomain(Config{MaxMem: mib})
	mapPage := func(dst []DevEntry) []DevEntry {
		t.Helper()
		before, calls := clock.Now(), h.Count.Hypercalls
		got, err := h.DevicePageMap(d.ID, dst)
		if err != nil {
			t.Fatal(err)
		}
		if spent, want := clock.Now().Sub(before), costs.Hypercall+costs.NoxsDevicePageMap; spent != want {
			t.Fatalf("map charged %v, want %v", spent, want)
		}
		if h.Count.Hypercalls != calls+1 {
			t.Fatalf("map made %d hypercalls", h.Count.Hypercalls-calls)
		}
		return got
	}
	if got := mapPage(nil); len(got) != 0 {
		t.Fatalf("no page mapped as %+v", got)
	}
	vif := DevEntry{Kind: DevVif, Evtchn: 3, CtrlGrant: 4, MAC: "m"}
	sysctl := DevEntry{Kind: DevSysctl, Evtchn: 5, CtrlGrant: 6}
	for _, e := range []DevEntry{vif, sysctl} {
		if err := h.DevicePageWrite(0, d.ID, e); err != nil {
			t.Fatal(err)
		}
	}
	mark := DevEntry{Kind: DevConsole, Index: 9}
	var buf [4]DevEntry
	buf[0] = mark
	got := mapPage(buf[:1])
	want := []DevEntry{mark, vif, sysctl}
	if len(got) != len(want) || &got[0] != &buf[0] {
		t.Fatalf("map returned %+v, not appended to dst", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if err := h.DevicePageRemove(0, d.ID, DevVif, 0); err != nil {
		t.Fatal(err)
	}
	if err := h.DevicePageWrite(0, d.ID, DevEntry{Kind: DevVbd, Evtchn: 7}); err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("after page edits, entry %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got := mapPage(nil); len(got) != 2 || got[0] != sysctl || got[1].Kind != DevVbd {
		t.Fatalf("edited page mapped as %+v", got)
	}
}

func TestDevicePageOnlyDom0Writes(t *testing.T) {
	h := newHV()
	d, _ := h.CreateDomain(Config{MaxMem: mib})
	err := h.DevicePageWrite(d.ID, d.ID, DevEntry{Kind: DevVif})
	if !errors.Is(err, ErrNotPrivileged) {
		t.Fatalf("guest write to device page: %v", err)
	}
	if err := h.DevicePageRemove(d.ID, d.ID, DevVif, 0); !errors.Is(err, ErrNotPrivileged) {
		t.Fatalf("guest remove from device page: %v", err)
	}
}

func TestDevicePageFull(t *testing.T) {
	h := newHV()
	d, _ := h.CreateDomain(Config{MaxMem: mib})
	for i := 0; i < DevicePageSlots; i++ {
		if err := h.DevicePageWrite(0, d.ID, DevEntry{Kind: DevVif, Index: i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.DevicePageWrite(0, d.ID, DevEntry{Kind: DevVif, Index: 99}); !errors.Is(err, ErrDevPageFull) {
		t.Fatalf("overfull device page: %v", err)
	}
}

func TestSuspendAndResume(t *testing.T) {
	h := newHV()
	d, _ := h.CreateDomain(Config{MaxMem: 8 * mib})
	_ = h.PopulatePhysmap(d.ID, 8*mib)
	_ = h.LoadImage(d.ID, 480*1024)
	_ = h.Unpause(d.ID)
	if err := h.Suspend(d.ID, "suspend"); err != nil {
		t.Fatal(err)
	}
	if d.State != StateSuspended || d.ShutdownReason != "suspend" {
		t.Fatalf("state=%v reason=%q", d.State, d.ShutdownReason)
	}
	if err := h.Unpause(d.ID); err != nil {
		t.Fatal(err)
	}
	if d.State != StateRunning {
		t.Fatalf("resume left state %v", d.State)
	}
}

func TestStateString(t *testing.T) {
	if StateRunning.String() != "running" || State(99).String() == "" {
		t.Fatal("State.String broken")
	}
	if DevSysctl.String() != "sysctl" || DevKind(99).String() == "" {
		t.Fatal("DevKind.String broken")
	}
}

func TestManyDomainsMemoryAccounting(t *testing.T) {
	h := New(sim.NewClock(), 64*1024*mib)
	base := h.UsedMemBytes()
	const n = 100
	for i := 0; i < n; i++ {
		d, err := h.CreateDomain(Config{MaxMem: 8 * mib})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.PopulatePhysmap(d.ID, 8*mib); err != nil {
			t.Fatal(err)
		}
	}
	got := h.UsedMemBytes() - base
	if got != n*8*mib {
		t.Fatalf("guest memory accounted %d, want %d", got, n*8*mib)
	}
	var destroyErr error
	h.EachDomain(func(id DomID) {
		if err := h.DestroyDomain(id); err != nil && destroyErr == nil {
			destroyErr = err
		}
	})
	if destroyErr != nil {
		t.Fatal(destroyErr)
	}
	if h.UsedMemBytes() != base {
		t.Fatal("memory not fully released after mass destroy")
	}
}

func TestPopulateSharedDedup(t *testing.T) {
	h := newHV()
	used0 := h.UsedMemBytes()
	var doms []*Domain
	for i := 0; i < 10; i++ {
		d, err := h.CreateDomain(Config{MaxMem: 8 * mib})
		if err != nil {
			t.Fatal(err)
		}
		if err := h.PopulatePhysmap(d.ID, 4*mib); err != nil {
			t.Fatal(err)
		}
		if err := h.PopulateShared(d.ID, "img:shared-kernel", 4*mib); err != nil {
			t.Fatal(err)
		}
		if d.MemBytes != 8*mib || d.SharedBytes != 4*mib {
			t.Fatalf("dom accounting: mem=%d shared=%d", d.MemBytes, d.SharedBytes)
		}
		doms = append(doms, d)
	}
	// Host pays 10×4MiB private + 1×4MiB shared.
	wantHost := uint64(10*4*mib + 4*mib)
	if got := h.UsedMemBytes() - used0; got != wantHost {
		t.Fatalf("host usage = %d, want %d", got, wantHost)
	}
	if h.Share.Refs("img:shared-kernel") != 10 {
		t.Fatalf("share refs = %d", h.Share.Refs("img:shared-kernel"))
	}
	// Destroying releases both private and shared references.
	for _, d := range doms {
		if err := h.DestroyDomain(d.ID); err != nil {
			t.Fatal(err)
		}
	}
	if h.UsedMemBytes() != used0 {
		t.Fatalf("leak after destroy: %d vs %d", h.UsedMemBytes(), used0)
	}
	if h.Share.Regions() != 0 {
		t.Fatal("shared region survived all sharers")
	}
}

func TestPopulateSharedCheaperThanPrivate(t *testing.T) {
	clock := sim.NewClock()
	h := New(clock, 8*1024*mib)
	d1, _ := h.CreateDomain(Config{MaxMem: 64 * mib})
	t0 := clock.Now()
	_ = h.PopulatePhysmap(d1.ID, 32*mib)
	privateCost := clock.Now().Sub(t0)
	d2, _ := h.CreateDomain(Config{MaxMem: 64 * mib})
	_ = h.PopulateShared(d2.ID, "k", 32*mib) // first sharer allocates
	d3, _ := h.CreateDomain(Config{MaxMem: 64 * mib})
	t1 := clock.Now()
	_ = h.PopulateShared(d3.ID, "k", 32*mib) // hit: mapping only
	sharedCost := clock.Now().Sub(t1)
	if sharedCost >= privateCost {
		t.Fatalf("shared mapping (%v) not cheaper than populate (%v)", sharedCost, privateCost)
	}
}

func TestDestroyReleasesPeerGrants(t *testing.T) {
	h := newHV()
	d, _ := h.CreateDomain(Config{MaxMem: mib})
	// Classic backend shape: Dom0 grants its pages to the guest.
	r, err := h.GrantAccess(0, d.ID, 42)
	if err != nil {
		t.Fatal(err)
	}
	own, err := h.GrantAccess(d.ID, 0, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.DestroyDomain(d.ID); err != nil {
		t.Fatal(err)
	}
	if h.HasGrant(r) {
		t.Fatal("Dom0→guest grant survived the guest's destruction")
	}
	if h.HasGrant(own) {
		t.Fatal("guest-owned grant survived the guest's destruction")
	}
	if h.NumGrants() != 0 {
		t.Fatalf("%d grants leaked after destroy", h.NumGrants())
	}
}

func TestEndpointIntrospectionIsClockFree(t *testing.T) {
	h := newHV()
	d, _ := h.CreateDomain(Config{MaxMem: mib})
	p, _ := h.AllocUnboundPort(0, d.ID)
	g, _ := h.GrantAccess(0, d.ID, 1)
	before := h.Clock.Now()
	var pe, ge []Endpoint
	h.EachPort(func(ep Endpoint) { pe = append(pe, ep) })
	h.EachGrant(func(ep Endpoint) { ge = append(ge, ep) })
	_ = h.HasPort(p)
	_ = h.HasGrant(g)
	if h.Clock.Now() != before {
		t.Fatal("introspection charged virtual time")
	}
	if len(pe) != 1 || pe[0] != (Endpoint{Owner: 0, Peer: d.ID}) {
		t.Fatalf("EachPort visited %+v", pe)
	}
	if len(ge) != 1 || ge[0] != (Endpoint{Owner: 0, Peer: d.ID}) {
		t.Fatalf("EachGrant visited %+v", ge)
	}
}

// TestDestroyReleasesAllGuestMemory: the allocator's per-owner record
// is the only record of a domain's pages, so DestroyDomain must leave
// the domain owning nothing — after repeated populates and after a
// populate that failed and rolled back.
func TestDestroyReleasesAllGuestMemory(t *testing.T) {
	h := New(sim.NewClock(), 1024*mib)
	used0 := h.UsedMemBytes()
	holds := func(id DomID) bool {
		held := false
		h.Mem.EachOwner(func(o mm.Owner, _ uint64) { held = held || o == mm.Owner(id) })
		return held
	}
	d, err := h.CreateDomain(Config{MaxMem: 64 * mib})
	if err != nil {
		t.Fatal(err)
	}
	for _, bytes := range []uint64{8 * mib, 24*mib + 4096} {
		if err := h.PopulatePhysmap(d.ID, bytes); err != nil {
			t.Fatal(err)
		}
	}
	if got := h.Mem.OwnerBytes(mm.Owner(d.ID)); got != 32*mib+4096 {
		t.Fatalf("two populates charged %d bytes", got)
	}
	// More than the host has left: the populate fails and rolls back
	// to the two populates before it.
	if err := h.PopulatePhysmap(d.ID, 2048*mib); !errors.Is(err, mm.ErrOutOfMemory) {
		t.Fatalf("oversized populate: err = %v, want ErrOutOfMemory", err)
	}
	if got := h.Mem.OwnerBytes(mm.Owner(d.ID)); got != 32*mib+4096 {
		t.Fatalf("failed populate left %d bytes charged", got)
	}
	if d.MemBytes != 32*mib+4096 {
		t.Fatalf("failed populate changed MemBytes to %d", d.MemBytes)
	}
	if err := h.DestroyDomain(d.ID); err != nil {
		t.Fatal(err)
	}
	if got := h.Mem.OwnerBytes(mm.Owner(d.ID)); got != 0 {
		t.Fatalf("destroyed domain still owns %d bytes", got)
	}
	if holds(d.ID) {
		t.Fatal("destroyed domain still listed among memory owners")
	}
	// A domain whose only populate failed owns nothing either.
	d2, err := h.CreateDomain(Config{MaxMem: 64 * mib})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.PopulatePhysmap(d2.ID, 2048*mib); !errors.Is(err, mm.ErrOutOfMemory) {
		t.Fatalf("oversized populate: err = %v, want ErrOutOfMemory", err)
	}
	if holds(d2.ID) {
		t.Fatal("failed populate left the domain listed among memory owners")
	}
	if err := h.DestroyDomain(d2.ID); err != nil {
		t.Fatal(err)
	}
	if holds(d2.ID) || h.Mem.OwnerBytes(mm.Owner(d2.ID)) != 0 {
		t.Fatal("destroyed domain still owns memory")
	}
	if h.UsedMemBytes() != used0 {
		t.Fatalf("host memory %d after destroy, %d before create", h.UsedMemBytes(), used0)
	}
}
