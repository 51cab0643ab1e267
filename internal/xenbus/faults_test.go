package xenbus

import (
	"errors"
	"testing"

	"lightvm/internal/costs"
	"lightvm/internal/faults"
	"lightvm/internal/hv"
)

func TestHandshakeStallRecoversViaReattach(t *testing.T) {
	f := newFixture(t)
	d := f.newDomain(t)
	// Drop only the first announcement: the window closes long before
	// the toolstack's re-attach rewrites the state node, so the second
	// announcement reaches the backend.
	f.s.Faults = faults.New(f.clock, 7, faults.Plan{
		Rate:   1,
		Kinds:  []faults.Kind{faults.KindHandshakeStall},
		Window: faults.Window{To: f.clock.Now().Add(costs.DeviceHandshakeTimeout / 2)},
	})
	start := f.clock.Now()
	f.createDevice(t, d.ID)
	if err := WaitBackendReady(f.s, f.clock, NewDevice(d.ID, hv.DevVif, 0)); err != nil {
		t.Fatalf("handshake did not recover via re-attach: %v", err)
	}
	if f.be.StallsInjected != 1 {
		t.Fatalf("got %d injected stalls, want 1", f.be.StallsInjected)
	}
	if f.be.DevicesSetUp != 1 {
		t.Fatalf("backend set up %d devices, want 1", f.be.DevicesSetUp)
	}
	// The recovery must have paid at least one full watch-timeout
	// window before re-attaching.
	if elapsed := f.clock.Now().Sub(start); elapsed < costs.DeviceHandshakeTimeout {
		t.Fatalf("recovered in %v, faster than the %v watch timeout", elapsed, costs.DeviceHandshakeTimeout)
	}
	// And the device must be fully usable afterwards.
	if err := ConnectFrontend(f.s, f.h, NewDevice(d.ID, hv.DevVif, 0)); err != nil {
		t.Fatalf("frontend connect after recovery: %v", err)
	}
}

func TestHandshakeStallExhaustsToDeviceTimeout(t *testing.T) {
	f := newFixture(t)
	d := f.newDomain(t)
	// Every announcement is dropped: all re-attach attempts fail and
	// the wait degrades to the typed timeout.
	f.s.Faults = faults.New(f.clock, 11, faults.Plan{
		Rate:  1,
		Kinds: []faults.Kind{faults.KindHandshakeStall},
	})
	f.createDevice(t, d.ID)
	err := WaitBackendReady(f.s, f.clock, NewDevice(d.ID, hv.DevVif, 0))
	if err == nil {
		t.Fatal("wait succeeded with every announcement dropped")
	}
	if !errors.Is(err, ErrDeviceTimeout) {
		t.Fatalf("error %v is not ErrDeviceTimeout", err)
	}
	if f.be.StallsInjected != handshakeAttempts {
		t.Fatalf("got %d injected stalls, want one per attempt (%d)", f.be.StallsInjected, handshakeAttempts)
	}
	if f.be.DevicesSetUp != 0 {
		t.Fatal("backend completed setup despite dropped announcements")
	}
}

func TestConnectFrontendBadEntryIsTyped(t *testing.T) {
	f := newFixture(t)
	d := f.newDomain(t)
	f.createDevice(t, d.ID)
	if err := WaitBackendReady(f.s, f.clock, NewDevice(d.ID, hv.DevVif, 0)); err != nil {
		t.Fatal(err)
	}
	be := BackendPath(d.ID, hv.DevVif, 0)
	f.s.Write(be+"/event-channel", "not-a-number")
	err := ConnectFrontend(f.s, f.h, NewDevice(d.ID, hv.DevVif, 0))
	if !errors.Is(err, ErrBadEntry) {
		t.Fatalf("error %v is not ErrBadEntry", err)
	}
}

func TestConnectFrontendBackendGoneIsTyped(t *testing.T) {
	f := newFixture(t)
	d := f.newDomain(t)
	f.createDevice(t, d.ID)
	// No WaitBackendReady and no backend nodes: connect must fail with
	// the typed sentinel.
	_ = f.s.Rm(BackendPath(d.ID, hv.DevVif, 0))
	err := ConnectFrontend(f.s, f.h, NewDevice(d.ID, hv.DevVif, 0))
	if !errors.Is(err, ErrBackendGone) {
		t.Fatalf("error %v is not ErrBackendGone", err)
	}
}
