package xenstore

import (
	"errors"
	"fmt"

	"lightvm/internal/costs"
	"lightvm/internal/sim"
)

// Implementation variants and the quota refusal — two pieces of real
// xenstored behaviour the paper leans on:
//
//   - Footnote 3: "this already uses oxenstored, the faster of the two
//     available implementations of the XenStore. Results with
//     cxenstored show much higher overheads." The C implementation
//     processes requests more slowly and walks its connection list
//     with worse constants.
//   - xenstored enforces a per-domain node quota (default 1000 nodes)
//     so one guest cannot fill the store — the DoS concern of §1
//     applied to the control plane itself. The simulator's guests never
//     write the store themselves, so the refusal surfaces only through
//     the fault plane's store-quota kind at the toolstack create gate
//     (toolstack/pressure.go).

// Variant selects the store daemon implementation.
type Variant int

// Store daemon implementations.
const (
	// Oxenstored is the OCaml daemon the paper benchmarks against.
	Oxenstored Variant = iota
	// Cxenstored is the C daemon with "much higher overheads".
	Cxenstored
)

func (v Variant) String() string {
	if v == Cxenstored {
		return "cxenstored"
	}
	return "oxenstored"
}

// cxenstoredFactor multiplies the daemon-side processing and
// connection-scan costs for the C implementation.
const cxenstoredFactor = 3

// ErrQuota is the sentinel all quota refusals match via errors.Is.
var ErrQuota = errors.New("xenstore: domain node quota exceeded")

// DefaultNodeQuota mirrors xenstored's quota-nb-entries default.
const DefaultNodeQuota = 1000

// ErrQuotaExceeded is the typed quota refusal: which domain hit which
// per-domain limit. It matches ErrQuota under errors.Is, so existing
// sentinel checks keep working; overload-aware callers errors.As it to
// turn the refusal into a typed rejection instead of a run abort.
type ErrQuotaExceeded struct {
	Domain   int
	Resource string // the exhausted limit, e.g. "nodes"
	Limit    int
	Used     int
}

func (e *ErrQuotaExceeded) Error() string {
	return fmt.Sprintf("xenstore: domain %d %s quota exceeded (%d/%d)",
		e.Domain, e.Resource, e.Used, e.Limit)
}

// Is makes every typed refusal match the ErrQuota sentinel.
func (e *ErrQuotaExceeded) Is(target error) bool { return target == ErrQuota }

// SetVariant switches the daemon implementation (affects every
// subsequent operation's cost).
func (s *Store) SetVariant(v Variant) { s.variant = v }

// VariantName reports the active implementation.
func (s *Store) VariantName() string { return s.variant.String() }

// ChargeRefusal charges one daemon round trip — the cost of the
// daemon refusing an operation. Quota injection sites outside the
// store (the toolstack create paths) pay it before surfacing a typed
// refusal, so an injected quota exhaustion costs what a real one does.
func (s *Store) ChargeRefusal() { s.chargeOp(1) }

// variantExtra is folded into chargeOp: the C daemon pays the factor
// on its processing plus a harsher connection scan.
func (s *Store) variantExtra(base sim.Duration) sim.Duration {
	if s.variant == Cxenstored {
		return base*(cxenstoredFactor-1) +
			sim.Duration(s.Connections)*costs.XSPerConnection*(cxenstoredFactor-1)
	}
	return 0
}
