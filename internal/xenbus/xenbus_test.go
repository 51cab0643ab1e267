package xenbus

import (
	"errors"
	"strconv"
	"testing"
	"time"

	"lightvm/internal/devd"
	"lightvm/internal/hv"
	"lightvm/internal/sim"
	"lightvm/internal/xenstore"
)

const mib = 1024 * 1024

type fixture struct {
	clock *sim.Clock
	h     *hv.Hypervisor
	s     *xenstore.Store
	be    *Backend
	hp    *devd.Xendevd
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	clock := sim.NewClock()
	h := hv.New(clock, 8*1024*mib)
	s := xenstore.New(clock)
	hp := &devd.Xendevd{Clock: clock, Bridge: devd.NewBridge()}
	be := NewBackend(hv.DevVif, h, s, hp)
	return &fixture{clock: clock, h: h, s: s, be: be, hp: hp}
}

func (f *fixture) newDomain(t *testing.T) *hv.Domain {
	t.Helper()
	d, err := f.h.CreateDomain(hv.Config{MaxMem: 8 * mib})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// createDevice performs the toolstack's side: write entries in a txn.
func (f *fixture) createDevice(t *testing.T, dom hv.DomID) {
	t.Helper()
	err := f.s.Txn(8, func(tx *xenstore.Tx) error {
		WriteDeviceEntries(tx, NewDevice(dom, hv.DevVif, 0), "00:16:3e:00:00:01")
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestFullHandshake(t *testing.T) {
	f := newFixture(t)
	d := f.newDomain(t)
	f.createDevice(t, d.ID)

	// Backend work is asynchronous; waiting advances the clock and
	// lets it run.
	if err := WaitBackendReady(f.s, f.clock, NewDevice(d.ID, hv.DevVif, 0)); err != nil {
		t.Fatal(err)
	}
	if f.be.DevicesSetUp != 1 {
		t.Fatalf("backend set up %d devices", f.be.DevicesSetUp)
	}
	be := BackendPath(d.ID, hv.DevVif, 0)
	st, _ := f.s.Read(be + "/state")
	if st != strconv.Itoa(StateInitWait) {
		t.Fatalf("backend state %q, want InitWait", st)
	}
	if _, err := f.s.Read(be + "/event-channel"); err != nil {
		t.Fatal("backend did not publish event channel")
	}

	// Guest boots: frontend connects.
	if err := ConnectFrontend(f.s, f.h, NewDevice(d.ID, hv.DevVif, 0)); err != nil {
		t.Fatal(err)
	}
	fest, _ := f.s.Read(FrontendPath(d.ID, hv.DevVif, 0) + "/state")
	best, _ := f.s.Read(be + "/state")
	if fest != strconv.Itoa(StateConnected) || best != strconv.Itoa(StateConnected) {
		t.Fatalf("states fe=%q be=%q, want Connected", fest, best)
	}
	if f.h.NumPorts() != 1 {
		t.Fatalf("event channels = %d, want 1", f.h.NumPorts())
	}
	if f.hp.Events != 1 {
		t.Fatalf("hotplug events = %d, want 1", f.hp.Events)
	}
}

func TestHandshakeLeavesFrontendWatch(t *testing.T) {
	f := newFixture(t)
	d := f.newDomain(t)
	before := f.s.NumWatches()
	f.createDevice(t, d.ID)
	if err := WaitBackendReady(f.s, f.clock, NewDevice(d.ID, hv.DevVif, 0)); err != nil {
		t.Fatal(err)
	}
	if err := ConnectFrontend(f.s, f.h, NewDevice(d.ID, hv.DevVif, 0)); err != nil {
		t.Fatal(err)
	}
	if f.s.NumWatches() != before+1 {
		t.Fatalf("watches %d → %d, want +1 (running frontend keeps one)", before, f.s.NumWatches())
	}
}

func TestConnectBeforeBackendReadyFails(t *testing.T) {
	f := newFixture(t)
	d := f.newDomain(t)
	f.createDevice(t, d.ID)
	// No wait: backend hasn't run, no event-channel node yet.
	if err := ConnectFrontend(f.s, f.h, NewDevice(d.ID, hv.DevVif, 0)); err == nil {
		t.Fatal("frontend connected before backend published details")
	}
}

func TestWaitBackendTimesOutWithoutBackend(t *testing.T) {
	clock := sim.NewClock()
	h := hv.New(clock, mib*1024)
	s := xenstore.New(clock)
	d, _ := h.CreateDomain(hv.Config{MaxMem: mib})
	// No backend registered at all.
	s.Write(BackendPath(d.ID, hv.DevVif, 0)+"/state", strconv.Itoa(StateInitialising))
	if err := WaitBackendReady(s, clock, NewDevice(d.ID, hv.DevVif, 0)); err == nil {
		t.Fatal("wait succeeded with no backend running")
	}
}

func TestTeardown(t *testing.T) {
	f := newFixture(t)
	d := f.newDomain(t)
	f.createDevice(t, d.ID)
	if err := WaitBackendReady(f.s, f.clock, NewDevice(d.ID, hv.DevVif, 0)); err != nil {
		t.Fatal(err)
	}
	if err := ConnectFrontend(f.s, f.h, NewDevice(d.ID, hv.DevVif, 0)); err != nil {
		t.Fatal(err)
	}
	f.be.Teardown(NewDevice(d.ID, hv.DevVif, 0))
	RemoveDeviceEntries(f.s, NewDevice(d.ID, hv.DevVif, 0))
	if f.s.Exists(BackendPath(d.ID, hv.DevVif, 0)) {
		t.Fatal("backend dir survived teardown")
	}
	if f.s.Exists(FrontendPath(d.ID, hv.DevVif, 0)) {
		t.Fatal("frontend dir survived teardown")
	}
	if f.h.NumPorts() != 0 {
		t.Fatalf("event channel leaked: %d", f.h.NumPorts())
	}
}

func TestBackendIgnoresForeignWrites(t *testing.T) {
	f := newFixture(t)
	// Unrelated writes under the backend root must not trigger setup.
	f.s.Write("/local/domain/0/backend/vif/junk", "x")
	f.clock.Sleep(50 * 1e6) // 50ms
	if f.be.DevicesSetUp != 0 {
		t.Fatal("backend reacted to non-state write")
	}
}

func TestMultipleDevicesSequential(t *testing.T) {
	f := newFixture(t)
	for i := 0; i < 5; i++ {
		d := f.newDomain(t)
		f.createDevice(t, d.ID)
		if err := WaitBackendReady(f.s, f.clock, NewDevice(d.ID, hv.DevVif, 0)); err != nil {
			t.Fatal(err)
		}
		if err := ConnectFrontend(f.s, f.h, NewDevice(d.ID, hv.DevVif, 0)); err != nil {
			t.Fatal(err)
		}
	}
	if f.be.DevicesSetUp != 5 {
		t.Fatalf("DevicesSetUp = %d", f.be.DevicesSetUp)
	}
	if f.h.NumPorts() != 5 {
		t.Fatalf("ports = %d", f.h.NumPorts())
	}
}

func TestPathHelpers(t *testing.T) {
	if FrontendPath(3, hv.DevVif, 0) != "/local/domain/3/device/vif/0" {
		t.Fatal(FrontendPath(3, hv.DevVif, 0))
	}
	if BackendPath(3, hv.DevVbd, 1) != "/local/domain/0/backend/vbd/3/1" {
		t.Fatal(BackendPath(3, hv.DevVbd, 1))
	}
}

// TestBackendDirPrefixesBackendPath pins the one backend layout the
// toolstack, fsck and the scrubber all walk: a device's backend path is
// its kind's backend directory plus /<dom>/<idx>.
func TestBackendDirPrefixesBackendPath(t *testing.T) {
	if got := BackendDir(hv.DevVif); got != "/local/domain/0/backend/vif" {
		t.Fatalf("BackendDir(vif) = %q", got)
	}
	for _, kind := range []hv.DevKind{hv.DevVif, hv.DevVbd, hv.DevConsole, hv.DevSysctl} {
		for _, dom := range []hv.DomID{1, 42, 65535} {
			for _, idx := range []int{0, 7} {
				want := BackendDir(kind) + "/" + strconv.Itoa(int(dom)) + "/" + strconv.Itoa(idx)
				if got := BackendPath(dom, kind, idx); got != want {
					t.Fatalf("BackendPath(%d, %s, %d) = %q, want %q", dom, KindName(kind), idx, got, want)
				}
			}
		}
	}
}

func TestHotplugAblation(t *testing.T) {
	// The same handshake through bash hotplug must be slower than
	// through xendevd — the §5.3 ablation.
	elapsed := func(hp devd.Hotplug) sim.Duration {
		clock := sim.NewClock()
		h := hv.New(clock, 8*1024*mib)
		s := xenstore.New(clock)
		var be *Backend
		switch v := hp.(type) {
		case *devd.BashScripts:
			v.Clock = clock
			be = NewBackend(hv.DevVif, h, s, v)
		case *devd.Xendevd:
			v.Clock = clock
			be = NewBackend(hv.DevVif, h, s, v)
		}
		_ = be
		d, _ := h.CreateDomain(hv.Config{MaxMem: 8 * mib})
		start := clock.Now()
		err := s.Txn(8, func(tx *xenstore.Tx) error {
			WriteDeviceEntries(tx, NewDevice(d.ID, hv.DevVif, 0), "00:16:3e:00:00:02")
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := WaitBackendReady(s, clock, NewDevice(d.ID, hv.DevVif, 0)); err != nil {
			t.Fatal(err)
		}
		return clock.Now().Sub(start)
	}
	bash := elapsed(&devd.BashScripts{Bridge: devd.NewBridge()})
	xd := elapsed(&devd.Xendevd{Bridge: devd.NewBridge()})
	if bash <= xd {
		t.Fatalf("bash hotplug (%v) not slower than xendevd (%v)", bash, xd)
	}
	if bash-xd < 20*1e6 { // ≥20ms difference expected
		t.Fatalf("hotplug ablation too small: bash=%v xendevd=%v", bash, xd)
	}
}

func TestOverlappingCreationsConflictAndRecover(t *testing.T) {
	// The §4.2 mechanism: backend transactions from one creation land
	// while the next creation's transaction is open on the same
	// backend tree, forcing a conflict+retry — which the Txn helper
	// absorbs. We drive it explicitly: open a toolstack transaction
	// that reads the shared backend directory, let the async backend
	// work for a previous device commit underneath it, and watch the
	// commit fail with ErrAgain.
	f := newFixture(t)
	d1 := f.newDomain(t)
	d2 := f.newDomain(t)

	// Creation 1: entries written; backend work now pending on the
	// clock.
	f.createDevice(t, d1.ID)

	// Creation 2 opens its transaction and reads the previous device's
	// backend state (as a toolstack enumerating in-flight devices
	// does) before that backend has run.
	tx := f.s.TxnStart()
	if _, err := tx.ReadAt(BackendPath(d1.ID, hv.DevVif, 0), "state"); err != nil {
		t.Fatal(err)
	}
	WriteDeviceEntries(tx, NewDevice(d2.ID, hv.DevVif, 0), "00:16:3e:00:00:09")

	// Backend 1 completes while transaction 2 is open (advancing the
	// clock runs its scheduled work, which writes under the observed
	// directory).
	f.clock.Sleep(5 * time.Millisecond)
	if f.be.DevicesSetUp != 1 {
		t.Fatalf("backend did not run: %d", f.be.DevicesSetUp)
	}

	if err := tx.Commit(); !errors.Is(err, xenstore.ErrAgain) {
		t.Fatalf("overlapped commit: %v", err)
	}
	if f.s.Count.TxnConflicts == 0 {
		t.Fatal("no conflict recorded")
	}

	// The retry loop recovers: a fresh transaction goes through and
	// the device completes its handshake.
	f.createDevice(t, d2.ID)
	if err := WaitBackendReady(f.s, f.clock, NewDevice(d2.ID, hv.DevVif, 0)); err != nil {
		t.Fatal(err)
	}
	if err := ConnectFrontend(f.s, f.h, NewDevice(d2.ID, hv.DevVif, 0)); err != nil {
		t.Fatal(err)
	}
}

// failingTeardown is a hotplug whose setups succeed and whose
// teardowns all fail.
type failingTeardown struct{ devd.Xendevd }

func (f *failingTeardown) Teardown(dom, idx int) error { return devd.ErrHotplug }

// TestTeardownCountsHotplugFailure tears a vif down through a hotplug
// that fails: the failure is counted, and the backend half still goes.
func TestTeardownCountsHotplugFailure(t *testing.T) {
	f := newFixture(t)
	hp := &failingTeardown{devd.Xendevd{Clock: f.clock, Bridge: devd.NewBridge()}}
	f.be.Hotplug = hp
	d := f.newDomain(t)
	f.createDevice(t, d.ID)
	if err := WaitBackendReady(f.s, f.clock, NewDevice(d.ID, hv.DevVif, 0)); err != nil {
		t.Fatal(err)
	}
	if f.be.HotplugFailures != 0 {
		t.Fatalf("%d hotplug failures after a clean setup", f.be.HotplugFailures)
	}
	f.be.Teardown(NewDevice(d.ID, hv.DevVif, 0))
	if f.be.HotplugFailures != 1 {
		t.Fatalf("HotplugFailures = %d after a failed teardown, want 1", f.be.HotplugFailures)
	}
	if f.s.Exists(BackendPath(d.ID, hv.DevVif, 0)) {
		t.Fatal("backend dir survived teardown")
	}
}

func TestVifNameMatchesBackendPort(t *testing.T) {
	f := newFixture(t)
	d := f.newDomain(t)
	f.createDevice(t, d.ID)
	if err := WaitBackendReady(f.s, f.clock, NewDevice(d.ID, hv.DevVif, 0)); err != nil {
		t.Fatal(err)
	}
	// The backend attached the domain's vif 0, and only that.
	if n := f.hp.Bridge.Ports(); n != 1 {
		t.Fatalf("bridge holds %d ports, want 1", n)
	}
	if err := f.hp.Bridge.DetachPort(int(d.ID), 0); err != nil {
		t.Fatal(err)
	}
}
