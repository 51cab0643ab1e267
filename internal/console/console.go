// Package console models xenconsoled: the Dom0 daemon that drains
// each guest's console ring into a per-domain log. Guests write boot
// banners and runtime messages; `chaos -op console` and tests read
// them back. Rings are bounded like the real 4 KiB console ring —
// writers overwrite the oldest output when the reader falls behind.
package console

import (
	"errors"
	"fmt"

	"lightvm/internal/hv"
)

// RingSize is the per-domain console ring capacity in bytes.
const RingSize = 4096

// ErrNoConsole is returned for domains without an attached console.
var ErrNoConsole = errors.New("console: domain has no console")

// ring is one guest's console buffer.
type ring struct {
	buf     []byte
	dropped int // bytes overwritten before being read
}

// Daemon is the xenconsoled equivalent.
type Daemon struct {
	rings map[hv.DomID]*ring
}

// NewDaemon starts an empty console daemon.
func NewDaemon() *Daemon {
	return &Daemon{rings: make(map[hv.DomID]*ring)}
}

// Attach creates the console ring for a domain (idempotent).
func (d *Daemon) Attach(dom hv.DomID) {
	if _, ok := d.rings[dom]; !ok {
		d.rings[dom] = &ring{}
	}
}

// Detach drops a domain's console (domain destruction).
func (d *Daemon) Detach(dom hv.DomID) {
	delete(d.rings, dom)
}

// Write appends guest output to the domain's ring, overwriting the
// oldest bytes past capacity.
func (d *Daemon) Write(dom hv.DomID, msg string) error {
	r, ok := d.rings[dom]
	if !ok {
		return fmt.Errorf("%w: %d", ErrNoConsole, dom)
	}
	r.buf = append(r.buf, msg...)
	if over := len(r.buf) - RingSize; over > 0 {
		r.buf = r.buf[over:]
		r.dropped += over
	}
	return nil
}

// Writef is Write with formatting.
func (d *Daemon) Writef(dom hv.DomID, format string, args ...interface{}) error {
	return d.Write(dom, fmt.Sprintf(format, args...))
}

// Read returns the domain's buffered console output.
func (d *Daemon) Read(dom hv.DomID) (string, error) {
	r, ok := d.rings[dom]
	if !ok {
		return "", fmt.Errorf("%w: %d", ErrNoConsole, dom)
	}
	out := string(r.buf)
	if r.dropped > 0 {
		out = fmt.Sprintf("[%d bytes dropped]\n", r.dropped) + out
	}
	return out, nil
}
