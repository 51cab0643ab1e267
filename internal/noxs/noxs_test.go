package noxs

import (
	"errors"
	"fmt"
	"testing"

	"lightvm/internal/devd"
	"lightvm/internal/hv"
	"lightvm/internal/sim"
)

const mib = 1024 * 1024

func newModule() (*Module, *hv.Hypervisor, *sim.Clock) {
	clock := sim.NewClock()
	h := hv.New(clock, 8*1024*mib)
	hp := &devd.Xendevd{Clock: clock, Bridge: devd.NewBridge()}
	return NewModule(h, hp), h, clock
}

func newDom(t *testing.T, h *hv.Hypervisor) *hv.Domain {
	t.Helper()
	d, err := h.CreateDomain(hv.Config{MaxMem: 8 * mib})
	if err != nil {
		t.Fatal(err)
	}
	if err := h.PopulatePhysmap(d.ID, 8*mib); err != nil {
		t.Fatal(err)
	}
	if err := h.LoadImage(d.ID, 300*1024); err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCreateDevicePublishesOnDevicePage(t *testing.T) {
	m, h, _ := newModule()
	d := newDom(t, h)
	e, err := m.CreateDevice(d.ID, hv.DevVif, 0, "00:16:3e:00:00:01")
	if err != nil {
		t.Fatal(err)
	}
	entries, err := h.DevicePageMap(d.ID, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Evtchn != e.Evtchn || entries[0].MAC != e.MAC {
		t.Fatalf("device page = %+v", entries)
	}
	if m.Count.DevicesCreated != 1 || m.Count.Ioctls != 1 {
		t.Fatalf("counters: %+v", m.Count)
	}
}

func TestConnectGuestBindsEverything(t *testing.T) {
	m, h, _ := newModule()
	d := newDom(t, h)
	if _, err := m.CreateDevice(d.ID, hv.DevVif, 0, "00:16:3e:00:00:01"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateDevice(d.ID, hv.DevSysctl, 0, ""); err != nil {
		t.Fatal(err)
	}
	if err := m.ConnectGuest(d.ID); err != nil {
		t.Fatal(err)
	}
	if h.Count.GrantMaps != 2 {
		t.Fatalf("grant maps = %d, want 2", h.Count.GrantMaps)
	}
}

// raceEnabled is set by race_test.go: the race detector's
// instrumentation allocates on its own, so allocation budgets do not
// hold under it.
var raceEnabled bool

// TestConnectGuestAllocs pins the guest half of the handshake at one
// heap object for a vif+sysctl page: the sysctl upcall closure. The
// device page is read into a stack buffer, and the vif's upcall
// captures nothing.
func TestConnectGuestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	m, h, _ := newModule()
	d := newDom(t, h)
	if _, err := m.CreateDevice(d.ID, hv.DevVif, 0, "00:16:3e:00:00:01"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateDevice(d.ID, hv.DevSysctl, 0, ""); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if err := m.ConnectGuest(d.ID); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("ConnectGuest allocates %.1f objects, want 1", allocs)
	}
}

func TestNoStoreInvolved(t *testing.T) {
	// The whole point: device setup must be a handful of hypercalls,
	// not tens of store messages. We assert the hypercall count stays
	// small and no xenstore exists to consult.
	m, h, _ := newModule()
	d := newDom(t, h)
	before := h.Count.Hypercalls
	if _, err := m.CreateDevice(d.ID, hv.DevVif, 0, "m"); err != nil {
		t.Fatal(err)
	}
	if err := m.ConnectGuest(d.ID); err != nil {
		t.Fatal(err)
	}
	calls := h.Count.Hypercalls - before
	if calls > 10 {
		t.Fatalf("noxs device setup used %d hypercalls, want ≤10", calls)
	}
}

func TestSuspendProtocol(t *testing.T) {
	m, h, _ := newModule()
	d := newDom(t, h)
	if err := h.Unpause(d.ID); err != nil {
		t.Fatal(err)
	}
	if _, err := m.CreateDevice(d.ID, hv.DevSysctl, 0, ""); err != nil {
		t.Fatal(err)
	}
	if err := m.ConnectGuest(d.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.RequestShutdown(d.ID, "suspend"); err != nil {
		t.Fatal(err)
	}
	if d.State != hv.StateSuspended {
		t.Fatalf("state after suspend: %v", d.State)
	}
	if d.ShutdownReason != "suspend" {
		t.Fatalf("shutdown reason = %q", d.ShutdownReason)
	}
	if m.Count.Suspends != 1 {
		t.Fatalf("suspend counter = %d", m.Count.Suspends)
	}
}

func TestPoweroff(t *testing.T) {
	m, h, _ := newModule()
	d := newDom(t, h)
	_ = h.Unpause(d.ID)
	if _, err := m.CreateDevice(d.ID, hv.DevSysctl, 0, ""); err != nil {
		t.Fatal(err)
	}
	if err := m.ConnectGuest(d.ID); err != nil {
		t.Fatal(err)
	}
	if err := m.RequestShutdown(d.ID, "poweroff"); err != nil {
		t.Fatal(err)
	}
	if d.State != hv.StateShutdown || d.ShutdownReason != "poweroff" {
		t.Fatalf("state=%v reason=%q", d.State, d.ShutdownReason)
	}
}

func TestRequestShutdownWithoutSysctl(t *testing.T) {
	m, h, _ := newModule()
	d := newDom(t, h)
	if err := m.RequestShutdown(d.ID, "suspend"); !errors.Is(err, ErrNoSysctl) {
		t.Fatalf("shutdown without sysctl device: %v", err)
	}
}

func TestDestroyDevice(t *testing.T) {
	m, h, _ := newModule()
	d := newDom(t, h)
	if _, err := m.CreateDevice(d.ID, hv.DevVif, 0, "m"); err != nil {
		t.Fatal(err)
	}
	if err := m.DestroyDevice(d.ID, hv.DevVif, 0); err != nil {
		t.Fatal(err)
	}
	entries, _ := h.DevicePageMap(d.ID, nil)
	if len(entries) != 0 {
		t.Fatalf("device page not empty after destroy: %+v", entries)
	}
	if h.NumPorts() != 0 || h.NumGrants() != 0 {
		t.Fatalf("leak: ports=%d grants=%d", h.NumPorts(), h.NumGrants())
	}
	if err := m.DestroyDevice(d.ID, hv.DevVif, 0); err == nil {
		t.Fatal("double destroy accepted")
	}
}

func TestDestroyAll(t *testing.T) {
	m, h, _ := newModule()
	d := newDom(t, h)
	_, _ = m.CreateDevice(d.ID, hv.DevVif, 0, "m")
	_, _ = m.CreateDevice(d.ID, hv.DevVbd, 0, "")
	_, _ = m.CreateDevice(d.ID, hv.DevSysctl, 0, "")
	m.DestroyAll(d.ID)
	entries, _ := h.DevicePageMap(d.ID, nil)
	if len(entries) != 0 {
		t.Fatalf("DestroyAll left %d entries", len(entries))
	}
	if m.Count.DevicesGone != 3 {
		t.Fatalf("DevicesGone = %d", m.Count.DevicesGone)
	}
}

func TestIoctlScanGrowsWithDomains(t *testing.T) {
	m, h, clock := newModule()
	d1 := newDom(t, h)
	before := clock.Now()
	if _, err := m.CreateDevice(d1.ID, hv.DevVif, 0, "a"); err != nil {
		t.Fatal(err)
	}
	first := clock.Now().Sub(before)
	for i := 0; i < 500; i++ {
		newDom(t, h)
	}
	dN := newDom(t, h)
	before = clock.Now()
	if _, err := m.CreateDevice(dN.ID, hv.DevVif, 0, "b"); err != nil {
		t.Fatal(err)
	}
	nth := clock.Now().Sub(before)
	if nth <= first {
		t.Fatalf("noxs per-domain scan did not grow: first=%v nth=%v", first, nth)
	}
	// But growth must stay gentle: well under 10 ms at 500 domains
	// (the chaos[NoXS] curve only moves 8→15 ms over 1000 guests).
	if nth-first > 10*1e6 {
		t.Fatalf("noxs growth too steep: %v", nth-first)
	}
}

// failingTeardown is a hotplug whose setups succeed and whose
// teardowns all fail.
type failingTeardown struct{ devd.Xendevd }

func (f *failingTeardown) Teardown(dom, idx int) error { return devd.ErrHotplug }

// TestDestroyDeviceCountsHotplugFailure destroys a vif through a
// hotplug whose teardown fails: the device still leaves the page, and
// the failure is counted rather than dropped.
func TestDestroyDeviceCountsHotplugFailure(t *testing.T) {
	m, h, clock := newModule()
	m.Hotplug = &failingTeardown{devd.Xendevd{Clock: clock, Bridge: devd.NewBridge()}}
	d := newDom(t, h)
	if _, err := m.CreateDevice(d.ID, hv.DevVif, 0, "00:16:3e:00:00:09"); err != nil {
		t.Fatal(err)
	}
	if err := m.DestroyDevice(d.ID, hv.DevVif, 0); err != nil {
		t.Fatal(err)
	}
	if m.Count.HotplugFailures != 1 {
		t.Fatalf("HotplugFailures = %d, want 1", m.Count.HotplugFailures)
	}
	if m.Count.DevicesGone != 1 || len(d.DevPage.Entries) != 0 {
		t.Fatalf("device not destroyed: gone=%d page=%v", m.Count.DevicesGone, d.DevPage.Entries)
	}
}

// orderHotplug records the vif indexes torn down, in order.
type orderHotplug struct{ torn []int }

func (o *orderHotplug) Setup(dom, idx int) error    { return nil }
func (o *orderHotplug) Teardown(dom, idx int) error { o.torn = append(o.torn, idx); return nil }
func (o *orderHotplug) Name() string                { return "order" }

// TestDestroyAllPageOrder checks that DestroyAll destroys a page's
// entries in page order, each once, including after a device was
// removed from the middle of the page.
func TestDestroyAllPageOrder(t *testing.T) {
	m, h, _ := newModule()
	hp := &orderHotplug{}
	m.Hotplug = hp
	d := newDom(t, h)
	for i := 0; i < 4; i++ {
		if _, err := m.CreateDevice(d.ID, hv.DevVif, i, "m"); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := m.CreateDevice(d.ID, hv.DevSysctl, 0, ""); err != nil {
		t.Fatal(err)
	}
	if err := m.DestroyDevice(d.ID, hv.DevVif, 1); err != nil {
		t.Fatal(err)
	}
	m.DestroyAll(d.ID)
	if got := fmt.Sprint(hp.torn); got != "[1 0 2 3]" {
		t.Fatalf("vifs torn down in order %s, want [1 0 2 3]", got)
	}
	if entries, _ := h.DevicePageMap(d.ID, nil); len(entries) != 0 {
		t.Fatalf("DestroyAll left %d entries", len(entries))
	}
	if m.Count.DevicesGone != 5 {
		t.Fatalf("DevicesGone = %d, want 5", m.Count.DevicesGone)
	}
}
