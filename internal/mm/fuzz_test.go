package mm

import (
	"errors"
	"reflect"
	"testing"
)

// replayOps decodes data into allocator operations and applies them to
// a fresh allocator, checking the invariant after every one. The first
// two bytes size the host (1..4096 pages, so the seed blocks are not
// always one maximal block); every following 3-byte group is one
// operation: kind, owner, argument.
func replayOps(t *testing.T, data []byte) *Allocator {
	if len(data) < 2 {
		return nil
	}
	total := 1 + (uint64(data[0])<<8|uint64(data[1]))%4096
	a := New(total * PageSize)
	if err := a.checkInvariant(); err != nil {
		t.Fatalf("fresh %d-page allocator: %v", total, err)
	}
	for i := 2; i+3 <= len(data); i += 3 {
		kind, o, arg := data[i]%5, Owner(data[i+1]%8), uint64(data[i+2])
		held := a.OwnerBytes(o)
		switch kind {
		case 0:
			e, err := a.AllocPages(arg%64+1, o)
			if err != nil && !errors.Is(err, ErrOutOfMemory) {
				t.Fatalf("AllocPages: %v", err)
			}
			if err == nil && a.OwnerBytes(o) != held+e.Bytes() {
				t.Fatalf("AllocPages of %d pages charged owner %d %d bytes", e.Pages(), o, a.OwnerBytes(o)-held)
			}
		case 1:
			used := a.UsedBytes()
			size := arg * 3 * 1024 // not page-aligned: exercises rounding
			err := a.AllocBytes(size, o)
			switch {
			case errors.Is(err, ErrOutOfMemory):
				if a.UsedBytes() != used || a.OwnerBytes(o) != held {
					t.Fatalf("failed AllocBytes(%d) leaked: used %d → %d", size, used, a.UsedBytes())
				}
			case err != nil:
				t.Fatalf("AllocBytes: %v", err)
			default:
				pages := max((size+PageSize-1)/PageSize, 1)
				if a.OwnerBytes(o) != held+pages*PageSize {
					t.Fatalf("AllocBytes(%d) charged %d bytes", size, a.OwnerBytes(o)-held)
				}
			}
		case 2:
			exts := a.owners[o].exts
			if len(exts) == 0 {
				if err := a.Free(o, Extent{Base: PFN(arg), Order: 0}); err == nil {
					t.Fatalf("free by owner %d, which holds nothing, accepted", o)
				}
				break
			}
			e := exts[arg%uint64(len(exts))]
			if err := a.Free(o, Extent{Base: e.Base, Order: e.Order + 1}); err == nil {
				t.Fatal("free with the wrong order accepted")
			}
			if err := a.Free(o+1, e); err == nil {
				t.Fatal("free under the wrong owner accepted")
			}
			if err := a.Free(o, e); err != nil {
				t.Fatal(err)
			}
			if err := a.Free(o, e); err == nil {
				t.Fatal("double free accepted")
			}
		case 3:
			if freed := a.FreeOwner(o); freed != held || a.OwnerBytes(o) != 0 {
				t.Fatalf("FreeOwner(%d) returned %d of %d bytes", o, freed, held)
			}
		case 4:
			a.SetPressurePages(arg * total / 256)
		}
		if err := a.checkInvariant(); err != nil {
			t.Fatalf("after op %d (kind %d, owner %d, arg %d): %v", (i-2)/3, kind, o, arg, err)
		}
	}
	return a
}

// FuzzAllocFree drives the allocator through arbitrary operation
// sequences: the invariant must hold after every operation, bad frees
// must be rejected without effect, and replaying the same input must
// end in exactly the same state.
func FuzzAllocFree(f *testing.F) {
	f.Add([]byte{0, 255, 0, 1, 7, 1, 2, 200, 2, 1, 0, 3, 2, 0})
	f.Add([]byte{15, 255, 1, 1, 255, 1, 2, 255, 4, 0, 128, 0, 3, 9, 3, 1, 0})
	f.Add([]byte{0, 100, 0, 1, 63, 0, 2, 63, 0, 3, 63, 2, 2, 1, 0, 4, 63})
	f.Fuzz(func(t *testing.T, data []byte) {
		a := replayOps(t, data)
		if b := replayOps(t, data); !reflect.DeepEqual(a, b) {
			t.Fatal("two replays of the same operations ended in different states")
		}
	})
}
