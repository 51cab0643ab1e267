package apps

import (
	"fmt"
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
	return fmt.Sprintf("day %d, %02d:%02d:%02d UTC", days, h, m, s)
}
