package console

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"lightvm/internal/sim"
)

func TestWriteRead(t *testing.T) {
	d := NewDaemon()
	d.Attach(3)
	if err := d.Write(3, "booting daytime\n"); err != nil {
		t.Fatal(err)
	}
	if err := d.Writef(3, "ready in %dms\n", 4); err != nil {
		t.Fatal(err)
	}
	out, err := d.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "booting daytime") || !strings.Contains(out, "ready in 4ms") {
		t.Fatalf("console = %q", out)
	}
}

func TestNoConsole(t *testing.T) {
	d := NewDaemon()
	if err := d.Write(9, "x"); !errors.Is(err, ErrNoConsole) {
		t.Fatalf("write without attach: %v", err)
	}
	if _, err := d.Read(9); !errors.Is(err, ErrNoConsole) {
		t.Fatalf("read without attach: %v", err)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	d := NewDaemon()
	d.Attach(1)
	first := strings.Repeat("A", 1000)
	_ = d.Write(1, first)
	_ = d.Write(1, strings.Repeat("B", RingSize))
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
	_ = d.Write(5, "kept\n")
	d.Attach(5) // idempotent: the ring survives
	if out, _ := d.Read(5); out != "kept\n" {
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

// TestRecordsMatchEagerFormatting interleaves raw writes, formatted
// writes and banner records well past RingSize and checks every read
// against the eagerly formatted byte ring, drop marker included.
func TestRecordsMatchEagerFormatting(t *testing.T) {
	d := NewDaemon()
	d.Attach(7)
	var m eager
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 3000; i++ {
		switch rng.Intn(5) {
		case 0:
			s := strings.Repeat(string(rune('a'+i%26)), rng.Intn(300))
			_ = d.Write(7, s)
			m.write(s)
		case 1:
			_ = d.Writef(7, "tick %d\n", i)
			m.write(fmt.Sprintf("tick %d\n", i))
		case 2:
			b := Boot{VM: fmt.Sprintf("vm-%d", i), Image: "daytime", Kind: "unikernel",
				Core: rng.Intn(64) - 2, Devices: rng.Intn(12), Path: "noxs",
				At: sim.Time(rng.Int63n(int64(5 * time.Hour)))}
			_ = d.WriteBoot(7, b)
			m.write(bootText(b))
		case 3:
			r := Resume{VM: "r", At: sim.Time(rng.Int63n(int64(time.Second)))}
			_ = d.WriteResume(7, r)
			m.write(resumeText(r))
		case 4:
			s := strings.Repeat("Z", RingSize+rng.Intn(RingSize))
			if rng.Intn(8) == 0 { // rare: a write bigger than the ring
				_ = d.Write(7, s)
				m.write(s)
			}
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

// TestRetainedStateBounded feeds one ring 10,000 writes of every kind
// and checks what it keeps stays within a ring's worth of entries.
func TestRetainedStateBounded(t *testing.T) {
	d := NewDaemon()
	d.Attach(1)
	for i := 0; i < 10000; i++ {
		switch i % 3 {
		case 0:
			_ = d.Write(1, "x")
		case 1:
			_ = d.WriteBoot(1, Boot{VM: "g", Image: "noop", Kind: "unikernel", Path: "xenbus", At: sim.Time(i)})
		case 2:
			_ = d.WriteResume(1, Resume{VM: "g", At: sim.Time(i)})
		}
	}
	r := d.rings[1]
	if len(r.entries) > RingSize/16 || cap(r.entries) > RingSize/8 {
		t.Fatalf("ring keeps %d entries (cap %d) after 10000 writes", len(r.entries), cap(r.entries))
	}
	if r.size-r.entries[0].n >= RingSize {
		t.Fatalf("ring retains %d rendered bytes past a droppable head", r.size)
	}
	retained := 0
	for _, e := range r.entries {
		retained += cap(e.text)
	}
	if retained > 2*RingSize {
		t.Fatalf("ring retains %d bytes of raw text", retained)
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
