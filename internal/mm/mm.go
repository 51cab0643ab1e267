// Package mm implements the host physical-memory manager used by the
// simulated hypervisor: a classic binary buddy allocator over 4 KiB
// pages with per-owner accounting.
//
// Memory consumption numbers in the reproduction (Fig. 14, the Fig. 10
// "memory wall" at ~3000 Docker containers) come from real allocations
// against this allocator rather than from closed-form arithmetic.
package mm

import (
	"cmp"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

// PageSize is the size of one machine page in bytes.
const PageSize = 4096

// MaxOrder bounds the largest buddy block at 2^MaxOrder pages (4 GiB).
const MaxOrder = 20

// ErrOutOfMemory is returned when a reservation cannot be satisfied.
var ErrOutOfMemory = errors.New("mm: out of memory")

// PFN is a page frame number (page index into host memory).
type PFN uint64

// Owner identifies who holds an allocation (a domain ID, a container
// ID, the Dom0 kernel...). Owner 0 is reserved for the host itself.
type Owner int64

// Extent is a contiguous run of pages handed out by the allocator.
type Extent struct {
	Base  PFN
	Order uint // length is 2^Order pages
}

// Pages returns the number of pages in the extent.
func (e Extent) Pages() uint64 { return 1 << e.Order }

// Bytes returns the extent size in bytes.
func (e Extent) Bytes() uint64 { return e.Pages() * PageSize }

// Allocator is a binary buddy allocator. It is not safe for concurrent
// use; the simulation is single-threaded by design.
//
// Allocation is deterministic: every request takes the lowest-addressed
// block of the smallest order that fits, so the same sequence of calls
// always hands out the same page frames.
type Allocator struct {
	totalPages uint64
	freePages  uint64
	// free[k] holds the bases of the free 2^k-page blocks, sorted by
	// descending base: the lowest-addressed block sits at the tail,
	// where AllocPages pops it.
	free [MaxOrder + 1][]PFN
	// owners holds each owner's page count and extents, in allocation
	// order. It is the only record of what is allocated: Free validates
	// against it and FreeOwner releases from it.
	owners map[Owner]ownerRec
	// pressure withholds pages from the allocator's headroom without
	// touching the free lists: an allocation that would leave fewer
	// than this many pages free fails with ErrOutOfMemory. It models
	// dom0/host memory pressure (a balloon inflating, a noisy
	// neighbor) deterministically — no extents change hands, so the
	// buddy structure and every invariant stay exactly as they were.
	pressure uint64
}

// ownerRec is one owner's allocations: pages is the sum of its
// extents' pages.
type ownerRec struct {
	pages uint64
	exts  []Extent
}

// New creates an allocator managing totalBytes of host memory, rounded
// down to a whole number of pages.
func New(totalBytes uint64) *Allocator {
	a := &Allocator{
		totalPages: totalBytes / PageSize,
		owners:     make(map[Owner]ownerRec),
	}
	// Seed the free lists with maximal aligned blocks, highest first
	// within each order so every list starts sorted.
	var pfn PFN
	remaining := a.totalPages
	for remaining > 0 {
		order := uint(MaxOrder)
		for order > 0 && (uint64(1)<<order > remaining || uint64(pfn)%(1<<order) != 0) {
			order--
		}
		a.free[order] = slices.Insert(a.free[order], 0, pfn)
		pfn += PFN(uint64(1) << order)
		remaining -= 1 << order
	}
	a.freePages = a.totalPages
	return a
}

// TotalPages reports the number of managed pages.
func (a *Allocator) TotalPages() uint64 { return a.totalPages }

// FreePages reports the number of currently free pages.
func (a *Allocator) FreePages() uint64 { return a.freePages }

// UsedBytes reports total allocated bytes.
func (a *Allocator) UsedBytes() uint64 {
	return (a.totalPages - a.freePages) * PageSize
}

// OwnerBytes reports bytes currently held by owner.
func (a *Allocator) OwnerBytes(o Owner) uint64 { return a.owners[o].pages * PageSize }

// SetPressurePages withholds n pages from the allocation headroom:
// while set, any allocation that would leave fewer than n pages free
// fails with ErrOutOfMemory. Pass 0 to release the pressure. The
// withheld pages are never handed out and never enter the free lists'
// accounting, so this is reversible and invariant-neutral.
func (a *Allocator) SetPressurePages(n uint64) {
	if n > a.totalPages {
		n = a.totalPages
	}
	a.pressure = n
}

// PressurePages reports the currently withheld headroom.
func (a *Allocator) PressurePages() uint64 { return a.pressure }

// EachOwner calls fn on every owner with live allocations and the
// bytes it holds, in place and in no particular order.
func (a *Allocator) EachOwner(fn func(o Owner, bytes uint64)) {
	for o, rec := range a.owners {
		fn(o, rec.pages*PageSize)
	}
}

// orderFor returns the smallest order whose block covers pages.
func orderFor(pages uint64) (uint, error) {
	if pages == 0 {
		return 0, errors.New("mm: zero-page allocation")
	}
	order := uint(bits.Len64(pages - 1))
	if order > MaxOrder {
		return 0, fmt.Errorf("mm: allocation of %d pages exceeds max block", pages)
	}
	return order, nil
}

// AllocPages allocates at least pages contiguous pages (rounded up to
// a power of two) for owner. Multi-extent callers who do not need
// contiguity should use AllocBytes.
func (a *Allocator) AllocPages(pages uint64, o Owner) (Extent, error) {
	order, err := orderFor(pages)
	if err != nil {
		return Extent{}, err
	}
	e, err := a.take(order)
	if err != nil {
		return Extent{}, err
	}
	rec := a.owners[o]
	rec.pages += e.Pages()
	rec.exts = append(rec.exts, e)
	a.owners[o] = rec
	return e, nil
}

// take removes the lowest-addressed block of the smallest free order
// at or above order from the free lists, splits it down to order and
// returns the low end. The upper halves go to the lower orders' lists,
// which are empty whenever a split reaches them, so they stay sorted.
func (a *Allocator) take(order uint) (Extent, error) {
	if a.pressure > 0 && uint64(1)<<order > a.freePages-min(a.pressure, a.freePages) {
		return Extent{}, ErrOutOfMemory
	}
	from := order
	for from <= MaxOrder && len(a.free[from]) == 0 {
		from++
	}
	if from > MaxOrder {
		return Extent{}, ErrOutOfMemory
	}
	list := a.free[from]
	base := list[len(list)-1]
	a.free[from] = list[:len(list)-1]
	for from > order {
		from--
		a.free[from] = append(a.free[from], base+PFN(uint64(1)<<from))
	}
	e := Extent{Base: base, Order: order}
	a.freePages -= e.Pages()
	return e, nil
}

// AllocBytes allocates enough extents to cover size bytes for owner,
// preferring large blocks. On failure nothing stays allocated.
func (a *Allocator) AllocBytes(size uint64, o Owner) error {
	pages := (size + PageSize - 1) / PageSize
	if pages == 0 {
		pages = 1
	}
	// Decompose the request into power-of-two extents (largest first),
	// covering it exactly at page granularity — no rounding waste, so
	// footprint accounting stays faithful. That is one MaxOrder block
	// per 2^MaxOrder pages plus one block per set bit of the rest.
	rec := a.owners[o]
	n := len(rec.exts)
	rec.exts = slices.Grow(rec.exts, int(pages>>MaxOrder)+bits.OnesCount64(pages&(1<<MaxOrder-1)))
	for left := pages; left > 0; {
		order := uint(min(bits.Len64(left)-1, MaxOrder))
		e, err := a.take(order)
		if err != nil {
			// Roll back this call's blocks; the stored record is
			// untouched.
			for _, e := range rec.exts[n:] {
				a.release(e)
			}
			return err
		}
		rec.exts = append(rec.exts, e)
		left -= e.Pages()
	}
	rec.pages += pages
	a.owners[o] = rec
	return nil
}

// Free returns an extent owner o holds to the allocator, coalescing
// buddies. An extent o does not hold — already freed, held by another
// owner, or named with the wrong order — is rejected.
func (a *Allocator) Free(o Owner, e Extent) error {
	rec := a.owners[o]
	i := slices.Index(rec.exts, e)
	if i < 0 {
		return fmt.Errorf("mm: free of extent base=%d order=%d not held by owner %d", e.Base, e.Order, o)
	}
	rec.exts = slices.Delete(rec.exts, i, i+1)
	rec.pages -= e.Pages()
	if rec.pages == 0 {
		delete(a.owners, o)
	} else {
		a.owners[o] = rec
	}
	a.release(e)
	return nil
}

// FreeOwner releases every extent held by owner and reports how many
// bytes were returned.
func (a *Allocator) FreeOwner(o Owner) uint64 {
	rec, ok := a.owners[o]
	if !ok {
		return 0
	}
	delete(a.owners, o)
	for i := len(rec.exts) - 1; i >= 0; i-- {
		a.release(rec.exts[i])
	}
	return rec.pages * PageSize
}

// release puts e back on the free lists, merging it with its buddy for
// as long as the buddy is free.
func (a *Allocator) release(e Extent) {
	a.freePages += e.Pages()
	base, ord := e.Base, e.Order
	for ; ord < MaxOrder; ord++ {
		buddy := base ^ PFN(uint64(1)<<ord)
		i, ok := findFree(a.free[ord], buddy)
		if !ok {
			break
		}
		a.free[ord] = slices.Delete(a.free[ord], i, i+1)
		base = min(base, buddy)
	}
	i, _ := findFree(a.free[ord], base)
	a.free[ord] = slices.Insert(a.free[ord], i, base)
}

// findFree binary-searches a descending free list for base, returning
// its index, or the index it would be inserted at and false.
func findFree(list []PFN, base PFN) (int, bool) {
	lo, hi := 0, len(list)
	for lo < hi {
		if m := int(uint(lo+hi) >> 1); list[m] > base {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(list) && list[lo] == base
}

// checkInvariant verifies free-list/accounting consistency (test hook):
// every free list is strictly descending and aligned, free blocks and
// owner extents tile host memory without overlap, and the page counts
// add up.
func (a *Allocator) checkInvariant() error {
	type span struct {
		base, end PFN
		owner     Owner // -1 for a free block
	}
	var spans []span
	var free uint64
	for order, list := range a.free {
		for i, base := range list {
			if uint64(base)%(1<<uint(order)) != 0 {
				return fmt.Errorf("mm: misaligned free block base=%d order=%d", base, order)
			}
			if i > 0 && list[i-1] <= base {
				return fmt.Errorf("mm: order-%d free list not strictly descending at %d", order, i)
			}
			spans = append(spans, span{base, base + PFN(uint64(1)<<order), -1})
			free += 1 << uint(order)
		}
	}
	if free != a.freePages {
		return fmt.Errorf("mm: free accounting %d != free lists %d", a.freePages, free)
	}
	var used uint64
	for o, rec := range a.owners {
		var pages uint64
		for _, e := range rec.exts {
			if uint64(e.Base)%e.Pages() != 0 || e.Order > MaxOrder {
				return fmt.Errorf("mm: owner %d holds misaligned extent base=%d order=%d", o, e.Base, e.Order)
			}
			spans = append(spans, span{e.Base, e.Base + PFN(e.Pages()), o})
			pages += e.Pages()
		}
		if pages == 0 || pages != rec.pages {
			return fmt.Errorf("mm: owner %d accounts %d pages, holds %d", o, rec.pages, pages)
		}
		used += pages
	}
	if used != a.totalPages-a.freePages {
		return fmt.Errorf("mm: owner accounting %d != used %d", used, a.totalPages-a.freePages)
	}
	slices.SortFunc(spans, func(x, y span) int { return cmp.Compare(x.base, y.base) })
	var next PFN
	for _, s := range spans {
		if s.base != next {
			return fmt.Errorf("mm: page %d covered by owner %d overlaps or leaves a gap before it (next expected %d)", s.base, s.owner, next)
		}
		next = s.end
	}
	if uint64(next) != a.totalPages {
		return fmt.Errorf("mm: free blocks and extents end at page %d, host has %d", next, a.totalPages)
	}
	return nil
}
