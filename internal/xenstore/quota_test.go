package xenstore

import (
	"errors"
	"fmt"
	"testing"
)

func TestCxenstoredSlower(t *testing.T) {
	// Footnote 3: "Results with cxenstored show much higher overheads."
	elapsed := func(v Variant) int64 {
		s, c := newStore()
		s.SetVariant(v)
		s.Connections = 200
		for i := 0; i < 100; i++ {
			s.Write(fmt.Sprintf("/local/domain/%d/name", i), "g")
		}
		return int64(c.Now())
	}
	ox := elapsed(Oxenstored)
	cx := elapsed(Cxenstored)
	if cx <= ox {
		t.Fatalf("cxenstored (%d) not slower than oxenstored (%d)", cx, ox)
	}
	if float64(cx)/float64(ox) < 1.5 {
		t.Fatalf("cxenstored only %.2f× slower", float64(cx)/float64(ox))
	}
}

func TestVariantNames(t *testing.T) {
	s, _ := newStore()
	if s.VariantName() != "oxenstored" {
		t.Fatalf("default variant %q", s.VariantName())
	}
	s.SetVariant(Cxenstored)
	if s.VariantName() != "cxenstored" {
		t.Fatalf("variant %q", s.VariantName())
	}
}

// TestQuotaDoesNotBindDom0: the store itself refuses no toolstack
// write — a domain's registry may grow past DefaultNodeQuota nodes.
// Quota refusals come only from the toolstack's create gate.
func TestQuotaDoesNotBindDom0(t *testing.T) {
	s, _ := newStore()
	s.LoggingEnabled = false
	before := s.NumNodes()
	for i := 0; i < DefaultNodeQuota+10; i++ {
		s.Write(fmt.Sprintf("/local/domain/5/data/k%d", i), "v")
	}
	// /local, /local/domain, /local/domain/5, data, plus every key.
	if got, want := s.NumNodes()-before, DefaultNodeQuota+10+4; got != want {
		t.Fatalf("dom0 writes created %d nodes, want %d", got, want)
	}
}

// TestNodeQuotaTyped: the typed refusal formats its fields, matches
// the ErrQuota sentinel, and unwraps through errors.As.
func TestNodeQuotaTyped(t *testing.T) {
	var err error = fmt.Errorf("create: %w",
		&ErrQuotaExceeded{Domain: 5, Resource: "nodes", Limit: DefaultNodeQuota, Used: DefaultNodeQuota})
	if got, want := err.Error(), "create: xenstore: domain 5 nodes quota exceeded (1000/1000)"; got != want {
		t.Fatalf("Error() = %q, want %q", got, want)
	}
	if !errors.Is(err, ErrQuota) {
		t.Fatal("typed refusal does not match the ErrQuota sentinel")
	}
	if errors.Is(err, ErrNoEnt) {
		t.Fatal("typed refusal matches an unrelated sentinel")
	}
	var qe *ErrQuotaExceeded
	if !errors.As(err, &qe) || qe.Domain != 5 || qe.Resource != "nodes" ||
		qe.Limit != DefaultNodeQuota || qe.Used != DefaultNodeQuota {
		t.Fatalf("errors.As: %+v", qe)
	}
}

// TestQuotaRejectionLeavesStoreClean: ChargeRefusal costs exactly one
// daemon round trip — the same as a one-node op — and publishes nothing.
func TestQuotaRejectionLeavesStoreClean(t *testing.T) {
	s, clock := newStore()
	s.Write("/local/domain/3/name", "g3")
	fired := 0
	s.Watch("/", "all", func(string, string) { fired++ })

	start := clock.Now()
	s.Exists("/")
	oneOp := clock.Now().Sub(start)

	nodes, gen := s.NumNodes(), s.Snapshot().Gen()
	ops := s.Count.Ops
	start = clock.Now()
	s.ChargeRefusal()
	if got := s.Count.Ops - ops; got != 1 {
		t.Fatalf("ChargeRefusal charged %d ops, want 1", got)
	}
	if got := clock.Now().Sub(start); got != oneOp {
		t.Fatalf("ChargeRefusal cost %v, want one round trip %v", got, oneOp)
	}
	if s.NumNodes() != nodes || s.Snapshot().Gen() != gen || fired != 0 {
		t.Fatalf("refusal changed the store: nodes %d->%d gen %d->%d fired %d",
			nodes, s.NumNodes(), gen, s.Snapshot().Gen(), fired)
	}
}
