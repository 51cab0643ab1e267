// Package console models xenconsoled: the Dom0 daemon that drains
// each guest's console ring into a per-domain log. Guests write boot
// and resume banners; `chaos -op console` and tests read them back.
// Rings are bounded like the real 4 KiB console ring — writers
// overwrite the oldest output when the reader falls behind.
//
// The banners arrive as typed records (Boot, Resume) and are rendered
// to text only when the ring is read: every guest prints one, almost
// none is ever read, so the write path does no formatting.
// A ring still behaves exactly like a byte buffer of the rendered
// stream — the daemon knows each record's rendered length up front,
// which is all the overwrite bookkeeping needs.
package console

import (
	"errors"
	"fmt"
	"strconv"

	"lightvm/internal/hv"
	"lightvm/internal/idtable"
	"lightvm/internal/sim"
)

// RingSize is the per-domain console ring capacity in bytes.
const RingSize = 4096

// ErrNoConsole is returned for domains without an attached console.
var ErrNoConsole = errors.New("console: domain has no console")

// Boot is the banner a guest prints as it boots: three lines naming
// its image, core, device count and device path, and the virtual time
// it came up at.
type Boot struct {
	VM, Image, Kind string
	Core, Devices   int
	Path            string // device path the frontends connected over
	At              sim.Time
}

// Resume is the one-line banner of a guest restored from saved state.
type Resume struct {
	VM string
	At sim.Time
}

// The fixed text of the banners, shared by rendering and measuring.
const (
	bootMid     = ": booting "
	bootKindL   = " ("
	bootCore    = ") on vcpu->core "
	bootDevs    = ": "
	bootPath    = " device(s) connected via "
	bootReady   = ": ready in "
	resumeMid   = ": resumed from saved state at "
	bootFixed   = len(bootMid+bootKindL+bootCore+bootDevs+bootPath+bootReady) + 3 // three newlines
	resumeFixed = len(resumeMid) + 1
)

type entryKind uint8

const (
	bootEntry   entryKind = iota
	resumeEntry           // uses rec.VM and rec.At only
)

// entry is one banner record of the ring's stream, still waiting to be
// rendered.
type entry struct {
	kind entryKind
	rec  Boot
	n    int // rendered length in bytes
}

// ring is one guest's console buffer: the retained entries cover at
// least the newest RingSize bytes of the stream, and the oldest entry
// is dropped once the rest cover them on their own.
type ring struct {
	entries []entry
	size    int // rendered bytes across entries
	dropped int // bytes overwritten before being read
	// first backs entries until a second entry arrives, so a guest
	// that prints one banner allocates nothing of its own.
	first [1]entry
}

// Daemon is the xenconsoled equivalent. Its rings are held by value
// under the hypervisor's domain ids (DESIGN.md §17).
type Daemon struct {
	rings idtable.Table[hv.DomID, ring]
}

// NewDaemon starts an empty console daemon.
func NewDaemon() *Daemon { return &Daemon{} }

// Attach creates the console ring for a domain (idempotent).
func (d *Daemon) Attach(dom hv.DomID) {
	if d.rings.Get(dom) == nil {
		d.rings.Set(dom, ring{})
	}
}

// Detach drops a domain's console (domain destruction).
func (d *Daemon) Detach(dom hv.DomID) { d.rings.Del(dom) }

// EachDomain calls fn on every domain with an attached console, in
// place and in ascending order.
func (d *Daemon) EachDomain(fn func(hv.DomID)) {
	d.rings.Each(func(dom hv.DomID, _ *ring) { fn(dom) })
}

func (d *Daemon) ring(dom hv.DomID) (*ring, error) {
	r := d.rings.Get(dom)
	if r == nil {
		return nil, fmt.Errorf("%w: %d", ErrNoConsole, dom)
	}
	return r, nil
}

// WriteBoot appends a boot banner to the domain's ring.
func (d *Daemon) WriteBoot(dom hv.DomID, b Boot) error {
	n := 3*len(b.VM) + len(b.Image) + len(b.Kind) + len(b.Path) +
		intLen(b.Core) + intLen(b.Devices) + durationLen(sim.Duration(b.At)) + bootFixed
	return d.write(dom, entry{kind: bootEntry, rec: b, n: n})
}

// WriteResume appends a resume banner to the domain's ring.
func (d *Daemon) WriteResume(dom hv.DomID, res Resume) error {
	n := len(res.VM) + durationLen(sim.Duration(res.At)) + resumeFixed
	return d.write(dom, entry{kind: resumeEntry, rec: Boot{VM: res.VM, At: res.At}, n: n})
}

// write appends e to the domain's ring and drops whole entries the
// newer ones already cover, so at most one banner's worth of bytes
// beyond RingSize stays retained.
func (d *Daemon) write(dom hv.DomID, e entry) error {
	r, err := d.ring(dom)
	if err != nil {
		return err
	}
	if r.entries == nil {
		// Not at Attach: the ring is copied into its table slot, and
		// entries must point at the slot's own first.
		r.entries = r.first[:0]
	}
	r.entries = append(r.entries, e)
	r.size += e.n
	for r.size-r.entries[0].n >= RingSize {
		r.size -= r.entries[0].n
		r.dropped += r.entries[0].n
		r.entries[0] = entry{}
		r.entries = r.entries[1:]
	}
	return nil
}

// Read returns the domain's buffered console output: the newest
// RingSize bytes of everything written, after a marker counting the
// bytes overwritten before them.
func (d *Daemon) Read(dom hv.DomID) (string, error) {
	r, err := d.ring(dom)
	if err != nil {
		return "", err
	}
	buf := make([]byte, 0, r.size)
	for i := range r.entries {
		buf = r.entries[i].render(buf)
	}
	dropped := r.dropped
	if over := len(buf) - RingSize; over > 0 {
		buf = buf[over:]
		dropped += over
	}
	out := string(buf)
	if dropped > 0 {
		out = fmt.Sprintf("[%d bytes dropped]\n", dropped) + out
	}
	return out, nil
}

// render appends the entry's text to b.
func (e *entry) render(b []byte) []byte {
	if e.kind == resumeEntry {
		b = append(b, e.rec.VM...)
		b = append(b, resumeMid...)
		b = append(b, e.rec.At.String()...)
		return append(b, '\n')
	}
	x := &e.rec
	b = append(b, x.VM...)
	b = append(b, bootMid...)
	b = append(b, x.Image...)
	b = append(b, bootKindL...)
	b = append(b, x.Kind...)
	b = append(b, bootCore...)
	b = strconv.AppendInt(b, int64(x.Core), 10)
	b = append(b, '\n')
	b = append(b, x.VM...)
	b = append(b, bootDevs...)
	b = strconv.AppendInt(b, int64(x.Devices), 10)
	b = append(b, bootPath...)
	b = append(b, x.Path...)
	b = append(b, '\n')
	b = append(b, x.VM...)
	b = append(b, bootReady...)
	b = append(b, x.At.String()...)
	return append(b, '\n')
}

// durationLen is len(d.String()), following time.Duration's format:
// "0s"; below a second one unit (ns, µs, ms) with a fraction trimmed
// of trailing zeros; otherwise [[h]m]s with fractional seconds.
func durationLen(d sim.Duration) int {
	u := uint64(d)
	n := 0
	if d < 0 {
		n++
		u = -u
	}
	switch {
	case u == 0:
		return len("0s")
	case u < 1e3:
		return n + uintLen(u) + len("ns")
	case u < 1e6:
		f, whole := fracLen(u, 3)
		return n + f + uintLen(whole) + len("µs")
	case u < 1e9:
		f, whole := fracLen(u, 6)
		return n + f + uintLen(whole) + len("ms")
	}
	f, secs := fracLen(u, 9)
	n += f + uintLen(secs%60) + len("s")
	if mins := secs / 60; mins > 0 {
		n += uintLen(mins%60) + len("m")
		if hours := mins / 60; hours > 0 {
			n += uintLen(hours) + len("h")
		}
	}
	return n
}

// fracLen measures the fraction of v/10^prec as printed — trailing
// zeros dropped, no point when nothing is left — and returns it with
// the whole part.
func fracLen(v uint64, prec int) (n int, whole uint64) {
	for i := 0; i < prec; i++ {
		if n > 0 || v%10 != 0 {
			n++
		}
		v /= 10
	}
	if n > 0 {
		n++ // the point
	}
	return n, v
}

// intLen is len(strconv.Itoa(v)).
func intLen(v int) int {
	if v < 0 {
		return 1 + uintLen(-uint64(v))
	}
	return uintLen(uint64(v))
}

func uintLen(u uint64) int {
	n := 1
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}
