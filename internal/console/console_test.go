package console

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"lightvm/internal/hv"
	"lightvm/internal/sim"
)

func TestWriteRead(t *testing.T) {
	d := NewDaemon()
	d.Attach(3)
	b := Boot{VM: "web1", Image: "daytime", Kind: "unikernel", Core: 2, Devices: 1, Path: "noxs", At: sim.Time(4 * time.Millisecond)}
	if err := d.WriteBoot(3, b); err != nil {
		t.Fatal(err)
	}
	if err := d.WriteResume(3, Resume{VM: "web1", At: sim.Time(9 * time.Millisecond)}); err != nil {
		t.Fatal(err)
	}
	out, err := d.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	want := "web1: booting daytime (unikernel) on vcpu->core 2\n" +
		"web1: 1 device(s) connected via noxs\n" +
		"web1: ready in 4ms\n" +
		"web1: resumed from saved state at 9ms\n"
	if out != want {
		t.Fatalf("console = %q, want %q", out, want)
	}
}

func TestNoConsole(t *testing.T) {
	d := NewDaemon()
	if err := d.WriteBoot(9, Boot{VM: "x"}); !errors.Is(err, ErrNoConsole) {
		t.Fatalf("boot banner without attach: %v", err)
	}
	if err := d.WriteResume(9, Resume{VM: "x"}); !errors.Is(err, ErrNoConsole) {
		t.Fatalf("resume banner without attach: %v", err)
	}
	if _, err := d.Read(9); !errors.Is(err, ErrNoConsole) {
		t.Fatalf("read without attach: %v", err)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	d := NewDaemon()
	d.Attach(1)
	_ = d.WriteResume(1, Resume{VM: strings.Repeat("A", 1000)})
	for i := 0; i < RingSize/32; i++ {
		_ = d.WriteResume(1, Resume{VM: "B"})
	}
	out, _ := d.Read(1)
	if strings.Contains(out, "A") {
		t.Fatal("oldest bytes survived overflow")
	}
	if !strings.Contains(out, "bytes dropped") {
		t.Fatal("drop marker missing")
	}
	if len(out) > RingSize+64 {
		t.Fatalf("ring exceeded capacity: %d", len(out))
	}
}

func TestDetach(t *testing.T) {
	d := NewDaemon()
	d.Attach(5)
	_ = d.WriteResume(5, Resume{VM: "kept"})
	d.Attach(5) // idempotent: the ring survives
	if out, _ := d.Read(5); out != "kept: resumed from saved state at 0s\n" {
		t.Fatalf("re-attach reset the ring: %q", out)
	}
	d.Detach(5)
	if _, err := d.Read(5); !errors.Is(err, ErrNoConsole) {
		t.Fatalf("read after detach: %v", err)
	}
}

// eager is the reference model: a plain byte ring fed with every
// banner formatted at write time, exactly as the daemon's output must
// read.
type eager struct {
	buf     []byte
	dropped int
}

func (m *eager) write(s string) {
	m.buf = append(m.buf, s...)
	if over := len(m.buf) - RingSize; over > 0 {
		m.buf = m.buf[over:]
		m.dropped += over
	}
}

func (m *eager) read() string {
	out := string(m.buf)
	if m.dropped > 0 {
		out = fmt.Sprintf("[%d bytes dropped]\n", m.dropped) + out
	}
	return out
}

func bootText(b Boot) string {
	return fmt.Sprintf("%s: booting %s (%s) on vcpu->core %d\n%s: %d device(s) connected via %s\n%s: ready in %v\n",
		b.VM, b.Image, b.Kind, b.Core, b.VM, b.Devices, b.Path, b.VM, b.At)
}

func resumeText(r Resume) string {
	return fmt.Sprintf("%s: resumed from saved state at %v\n", r.VM, r.At)
}

// name is a guest name of random length: mostly short, sometimes long
// enough that one banner fills most of the ring, rarely longer than
// the ring itself.
func name(rng *rand.Rand, i int) string {
	n := rng.Intn(24)
	switch rng.Intn(16) {
	case 0:
		n = rng.Intn(RingSize / 2)
	case 1:
		if rng.Intn(8) == 0 {
			n = RingSize + rng.Intn(RingSize)
		}
	}
	return strings.Repeat(string(rune('a'+i%26)), n)
}

// TestRecordsMatchEagerFormatting interleaves boot and resume banners
// of every size well past RingSize and checks every read against the
// eagerly formatted byte ring, drop marker included.
func TestRecordsMatchEagerFormatting(t *testing.T) {
	d := NewDaemon()
	d.Attach(7)
	var m eager
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		if rng.Intn(2) == 0 {
			b := Boot{VM: name(rng, i), Image: "daytime", Kind: "unikernel",
				Core: rng.Intn(64) - 2, Devices: rng.Intn(12), Path: "noxs",
				At: sim.Time(rng.Int63n(int64(5 * time.Hour)))}
			_ = d.WriteBoot(7, b)
			m.write(bootText(b))
		} else {
			r := Resume{VM: name(rng, i), At: sim.Time(rng.Int63n(int64(time.Second)))}
			_ = d.WriteResume(7, r)
			m.write(resumeText(r))
		}
		got, err := d.Read(7)
		if err != nil {
			t.Fatal(err)
		}
		if want := m.read(); got != want {
			t.Fatalf("write %d: console diverged from eager formatting\n got %q\nwant %q", i, got, want)
		}
	}
}

// TestRetainedStateBounded feeds one ring 10,000 banners of both kinds
// and checks what it keeps stays within a ring's worth of entries.
func TestRetainedStateBounded(t *testing.T) {
	d := NewDaemon()
	d.Attach(1)
	for i := 0; i < 10000; i++ {
		if i%2 == 0 {
			_ = d.WriteBoot(1, Boot{VM: "g", Image: "noop", Kind: "unikernel", Path: "xenbus", At: sim.Time(i)})
		} else {
			_ = d.WriteResume(1, Resume{VM: "g", At: sim.Time(i)})
		}
	}
	r := d.rings.Get(1)
	if len(r.entries) > RingSize/16 || cap(r.entries) > RingSize/8 {
		t.Fatalf("ring keeps %d entries (cap %d) after 10000 writes", len(r.entries), cap(r.entries))
	}
	if r.size-r.entries[0].n >= RingSize {
		t.Fatalf("ring retains %d rendered bytes past a droppable head", r.size)
	}
	out, _ := d.Read(1)
	if !strings.HasPrefix(out, "[") || len(out) > RingSize+32 {
		t.Fatalf("read after 10000 writes: %d bytes, prefix %q", len(out), out[:20])
	}
}

// TestDurationLen checks the measured banner time against
// time.Duration's own formatting at every unit boundary.
func TestDurationLen(t *testing.T) {
	vals := []int64{0, 1, 9, 10, 999, 1000, 1001, 1010, 1100, 999999, 1e6, 1e6 + 1, 1500000,
		999999999, 1e9, 1e9 + 1, 1500000000, 59e9, 60e9, 61e9 + 5, 3599e9, 3600e9, 3601e9 + 1e6,
		1<<63 - 1, -1, -1500, -61e9, -1 << 63}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20000; i++ {
		vals = append(vals, rng.Int63n(int64(1)<<uint(rng.Intn(62)+1)))
	}
	for _, v := range vals {
		d := time.Duration(v)
		if got, want := durationLen(d), len(d.String()); got != want {
			t.Fatalf("durationLen(%d) = %d, want %d (%q)", v, got, want, d.String())
		}
	}
}

// TestRingTableChurnStaysSmall: 100k attach/detach cycles at rising
// domain ids, each ring printing a banner, keep the ring table at two
// chunks or fewer — a chunk is freed once its domains are gone and the
// ids have moved past it.
func TestRingTableChurnStaysSmall(t *testing.T) {
	const cycles = 100_000
	d := NewDaemon()
	for dom := hv.DomID(1); dom <= cycles; dom++ {
		d.Attach(dom)
		if err := d.WriteBoot(dom, Boot{VM: "g", Image: "noop", Kind: "unikernel", Path: "noxs"}); err != nil {
			t.Fatal(err)
		}
		d.Detach(dom)
	}
	chunks := reflect.ValueOf(d).Elem().FieldByName("rings").FieldByName("chunks")
	n := 0
	for i := 0; i < chunks.Len(); i++ {
		if !chunks.Index(i).IsNil() {
			n++
		}
	}
	if n > 2 {
		t.Fatalf("ring table holds %d chunks after %d cycles, want <= 2", n, cycles)
	}
	d.EachDomain(func(dom hv.DomID) { t.Fatalf("domain %d still has a ring", dom) })
}
