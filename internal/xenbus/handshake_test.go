package xenbus

import (
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lightvm/internal/devd"
	"lightvm/internal/hv"
	"lightvm/internal/sim"
	"lightvm/internal/xenstore"
)

var updateHandshake = flag.Bool("update", false, "rewrite testdata/handshake.golden")

// handshakeHost is a store with a backend for every device kind the
// toolstacks create, and guests already connected through it.
type handshakeHost struct {
	clock *sim.Clock
	h     *hv.Hypervisor
	s     *xenstore.Store
	backs map[hv.DevKind]*Backend
}

func newHandshakeHost(t testing.TB, guests int) *handshakeHost {
	t.Helper()
	clock := sim.NewClock()
	hh := &handshakeHost{
		clock: clock,
		h:     hv.New(clock, 64*1024*mib),
		s:     xenstore.New(clock),
		backs: make(map[hv.DevKind]*Backend),
	}
	hp := &devd.Xendevd{Clock: clock, Bridge: devd.NewBridge()}
	hh.backs[hv.DevVif] = NewBackend(hv.DevVif, hh.h, hh.s, hp)
	hh.backs[hv.DevVbd] = NewBackend(hv.DevVbd, hh.h, hh.s, nil)
	hh.backs[hv.DevConsole] = NewBackend(hv.DevConsole, hh.h, hh.s, nil)
	for i := 0; i < guests; i++ {
		d := hh.domain(t)
		dev := NewDevice(d.ID, hv.DevVif, 0)
		if err := hh.create(dev); err != nil {
			t.Fatal(err)
		}
		if err := ConnectFrontend(hh.s, hh.h, dev); err != nil {
			t.Fatal(err)
		}
	}
	return hh
}

func (hh *handshakeHost) domain(t testing.TB) *hv.Domain {
	t.Helper()
	d, err := hh.h.CreateDomain(hv.Config{MaxMem: 8 * mib})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// create is the toolstack half: the device entries in one transaction,
// then the wait for the backend.
func (hh *handshakeHost) create(d Device) error {
	var mac string
	if d.Kind == hv.DevVif {
		mac = fmt.Sprintf("00:16:3e:00:%02x:%02x", d.Dom>>8&0xff, d.Dom&0xff)
	}
	if err := hh.s.Txn(8, func(tx *xenstore.Tx) error {
		WriteDeviceEntries(tx, d, mac)
		return nil
	}); err != nil {
		return err
	}
	return WaitBackendReady(hh.s, hh.clock, d)
}

// TestHandshakePinned pins the whole split-driver lifecycle of a vif,
// a vbd and a console on a store holding 100 connected guests:
// create, WaitBackendReady, ConnectFrontend, Teardown and
// RemoveDeviceEntries. It records the end virtual time, the store's
// Counters, every watch fire under a root recorder and the backend
// directories (path, token and virtual time, in delivery order), and
// the serialized frontend and backend directories of each device once
// connected, and compares them to testdata/handshake.golden. How the
// store and xenbus build their paths may change; none of this may.
func TestHandshakePinned(t *testing.T) {
	hh := newHandshakeHost(t, 100)
	d := hh.domain(t)
	var out strings.Builder
	record := func(path, token string) {
		fmt.Fprintf(&out, "fire %d %s %s\n", int64(hh.clock.Now()), token, path)
	}
	hh.s.Watch("/", "rec-root", record)
	for _, kind := range []hv.DevKind{hv.DevVif, hv.DevVbd, hv.DevConsole} {
		hh.s.Watch(BackendDir(kind), "rec-"+KindName(kind), record)
	}
	for i, kind := range []hv.DevKind{hv.DevVif, hv.DevVbd, hv.DevConsole} {
		dev := NewDevice(d.ID, kind, i)
		if err := hh.create(dev); err != nil {
			t.Fatalf("%s: %v", KindName(kind), err)
		}
		if err := ConnectFrontend(hh.s, hh.h, dev); err != nil {
			t.Fatalf("%s: %v", KindName(kind), err)
		}
		for _, dir := range []string{dev.Frontend, dev.Backend} {
			blob, err := hh.s.SerializeSubtree(dir)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&out, "subtree %s %s\n", dir, hex.EncodeToString(blob))
		}
	}
	for i, kind := range []hv.DevKind{hv.DevVif, hv.DevVbd, hv.DevConsole} {
		dev := NewDevice(d.ID, kind, i)
		hh.backs[kind].Teardown(dev)
		RemoveDeviceEntries(hh.s, dev)
	}
	fmt.Fprintf(&out, "end %d\ncounters %+v\n", int64(hh.clock.Now()), hh.s.Count)

	golden := filepath.Join("testdata", "handshake.golden")
	if *updateHandshake {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(out.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Split(out.String(), "\n")
	wantLines := strings.Split(string(want), "\n")
	for i := 0; i < len(got) || i < len(wantLines); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("line %d differs from %s:\n got: %s\nwant: %s", i+1, golden, g, w)
		}
	}
}

// BenchmarkDeviceHandshake times one vif lifecycle through xenbus on a
// store holding 1,000 connected guests: the device-entry transaction,
// the backend's setup, the wait for it, the frontend connect, the
// backend teardown and the entry removal.
func BenchmarkDeviceHandshake(b *testing.B) {
	hh := newHandshakeHost(b, 1000)
	d := hh.domain(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Create, connect and destroy each name the device afresh, as
		// the toolstack's create, boot and destroy do.
		if err := hh.create(NewDevice(d.ID, hv.DevVif, 0)); err != nil {
			b.Fatal(err)
		}
		if err := ConnectFrontend(hh.s, hh.h, NewDevice(d.ID, hv.DevVif, 0)); err != nil {
			b.Fatal(err)
		}
		dev := NewDevice(d.ID, hv.DevVif, 0)
		hh.backs[hv.DevVif].Teardown(dev)
		RemoveDeviceEntries(hh.s, dev)
	}
}
