// Package trace records control-plane operations with their virtual
// timestamps — the observability layer the chaos CLI exposes with
// -trace and tests use to assert operation ordering. A disabled (nil
// or zero) log costs nothing on the hot path.
package trace

import (
	"fmt"
	"strings"
	"time"

	"lightvm/internal/sim"
)

// Event is one recorded control-plane operation.
type Event struct {
	At       sim.Time
	Category string // "toolstack", "migrate", "pool", ...
	Op       string // "create", "destroy", "save", ...
	Subject  string // VM name, flavor key, ...
	Detail   string
	Elapsed  time.Duration
}

// String renders one event line.
func (e Event) String() string {
	s := fmt.Sprintf("[%12v] %-10s %-8s %s", e.At, e.Category, e.Op, e.Subject)
	if e.Detail != "" {
		s += " " + e.Detail
	}
	if e.Elapsed > 0 {
		s += fmt.Sprintf(" (%v)", e.Elapsed)
	}
	return s
}

// Log is a bounded in-memory event log.
type Log struct {
	clock  *sim.Clock
	events []Event
	max    int
	// Dropped counts events discarded after the cap was reached.
	Dropped int
}

// New creates a log bound to clock keeping at most max events
// (0 means the default of 4096).
func New(clock *sim.Clock, max int) *Log {
	if max <= 0 {
		max = 4096
	}
	return &Log{clock: clock, max: max}
}

// Emit records an event. A nil log is a no-op; a caller that builds
// the detail string (concatenation, Sprintf) checks for a nil log
// first, so a disabled log allocates nothing.
func (l *Log) Emit(category, op, subject, detail string, elapsed time.Duration) {
	if l == nil {
		return
	}
	if len(l.events) >= l.max {
		l.Dropped++
		return
	}
	l.events = append(l.events, Event{
		At: l.clock.Now(), Category: category, Op: op,
		Subject: subject, Detail: detail, Elapsed: elapsed,
	})
}

// Events returns a copy of the recorded events in order.
func (l *Log) Events() []Event {
	if l == nil {
		return nil
	}
	return append([]Event(nil), l.events...)
}

// Filter returns events matching category (and op, if non-empty).
func (l *Log) Filter(category, op string) []Event {
	if l == nil {
		return nil
	}
	var out []Event
	for _, e := range l.events {
		if e.Category == category && (op == "" || e.Op == op) {
			out = append(out, e)
		}
	}
	return out
}

// Len reports recorded events.
func (l *Log) Len() int {
	if l == nil {
		return 0
	}
	return len(l.events)
}

// String renders the whole log.
func (l *Log) String() string {
	if l == nil {
		return ""
	}
	var b strings.Builder
	for _, e := range l.events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	if l.Dropped > 0 {
		fmt.Fprintf(&b, "(%d events dropped past the %d-event cap)\n", l.Dropped, l.max)
	}
	return b.String()
}
