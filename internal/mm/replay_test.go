package mm

import (
	"errors"
	"math/rand/v2"
	"slices"
	"testing"
)

// placed is one extent handed out during a churn, with its owner.
type placed struct {
	o Owner
	e Extent
}

// churn replays a seeded AllocBytes/FreeOwner mix over owners on a
// 64 MiB allocator, with request sizes scaled so that demand runs past
// capacity and requests fail on fragmentation as well as on size. It
// reports how many requests failed with ErrOutOfMemory and every
// extent handed out, in order.
func churn(t *testing.T, owners int, seed uint64) (int, []placed) {
	a := newTest(64)
	rng := rand.New(rand.NewPCG(seed, uint64(owners)))
	maxPages := 2 * a.TotalPages() / uint64(owners)
	var ooms int
	var out []placed
	for step := 0; step < 20*owners; step++ {
		o := Owner(rng.IntN(owners) + 1)
		if a.OwnerBytes(o) > 0 && rng.IntN(2) == 0 {
			a.FreeOwner(o)
			continue
		}
		n := len(a.owners[o].exts)
		err := a.AllocBytes((1+rng.Uint64N(maxPages))*PageSize, o)
		switch {
		case errors.Is(err, ErrOutOfMemory):
			ooms++
		case err != nil:
			t.Fatal(err)
		default:
			for _, e := range a.owners[o].exts[n:] {
				out = append(out, placed{o, e})
			}
		}
	}
	if err := a.checkInvariant(); err != nil {
		t.Fatal(err)
	}
	return ooms, out
}

// TestChurnReplaysIdentically: the same churn must fail the same
// requests and place every extent at the same page frames on every
// replay. With a free-block choice that varies between runs, the
// fragmentation — and so which high-order requests fail — varies too.
func TestChurnReplaysIdentically(t *testing.T) {
	for _, owners := range []int{600, 800, 1200} {
		wantOOM, want := churn(t, owners, 1)
		if wantOOM == 0 {
			t.Fatalf("%d owners: churn never ran out of memory; it does not exercise fragmentation", owners)
		}
		for r := 1; r < 30; r++ {
			ooms, got := churn(t, owners, 1)
			if ooms != wantOOM {
				t.Fatalf("%d owners, replay %d: %d out-of-memory failures, first run had %d", owners, r, ooms, wantOOM)
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%d owners, replay %d: extent sequence differs from the first run", owners, r)
			}
		}
	}
}

// TestLowestAddressFirst: a fresh allocator hands out PFN 0, then 1,
// and a freed low block is reused before any higher free block.
func TestLowestAddressFirst(t *testing.T) {
	a := newTest(64)
	var exts []Extent
	for want := PFN(0); want < 4; want++ {
		e, err := a.AllocPages(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if e.Base != want {
			t.Fatalf("allocation %d got PFN %d, want %d", want, e.Base, want)
		}
		exts = append(exts, e)
	}
	// Free PFN 2, then PFN 0: both sit on the order-0 list, and the
	// next single page must be PFN 0, then PFN 2, then fresh PFN 4.
	for _, i := range []int{2, 0} {
		if err := a.Free(1, exts[i]); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range []PFN{0, 2, 4} {
		e, err := a.AllocPages(1, 1)
		if err != nil {
			t.Fatal(err)
		}
		if e.Base != want {
			t.Fatalf("reuse got PFN %d, want %d", e.Base, want)
		}
	}
	if err := a.checkInvariant(); err != nil {
		t.Fatal(err)
	}
}
