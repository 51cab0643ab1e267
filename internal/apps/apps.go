package apps

import (
	"strconv"
	"time"

	"lightvm/internal/sim"
)

// Daytime is the §3.1 unikernel's application: "a TCP server over
// Mini-OS that returns the current time whenever it receives a
// connection" — 50 LoC in the paper, about that here too.
type Daytime struct {
	Clock *sim.Clock
	// Served counts connections handled.
	Served uint64
}

// Serve handles one connection, returning the daytime string.
func (d *Daytime) Serve() string {
	d.Served++
	t := time.Duration(d.Clock.Now())
	// RFC-867-flavoured: day time since simulation epoch.
	days := int(t / (24 * time.Hour))
	t -= time.Duration(days) * 24 * time.Hour
	h := int(t / time.Hour)
	t -= time.Duration(h) * time.Hour
	m := int(t / time.Minute)
	t -= time.Duration(m) * time.Minute
	s := int(t / time.Second)
	var buf [32]byte
	out := append(buf[:0], "day "...)
	out = strconv.AppendInt(out, int64(days), 10)
	out = append(out, ", "...)
	out = appendTwoDigits(out, h)
	out = append(out, ':')
	out = appendTwoDigits(out, m)
	out = append(out, ':')
	out = appendTwoDigits(out, s)
	return string(append(out, " UTC"...))
}

// appendTwoDigits appends v, in [0, 100), zero-padded to two digits.
func appendTwoDigits(b []byte, v int) []byte {
	return append(b, byte('0'+v/10), byte('0'+v%10))
}
