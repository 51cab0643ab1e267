package mm

import (
	"errors"
	"fmt"
)

// SharePool implements content-keyed page sharing between guests — the
// memory-deduplication extension the paper sketches in §9 ("One avenue
// of optimization is to use memory de-duplication (as proposed by
// SnowFlock) to reduce the overall memory footprint"). Guests booted
// from the same image share its resident pages (and their untouched
// zero pages) read-only; a write breaks the share with a private copy.
type SharePool struct {
	alloc *Allocator
	pages map[string]*sharedRegion
	// owner space for shared regions, clear of domain/container IDs.
	nextOwner Owner
}

// sharedRegion is one shared region; its pages are all held by its
// own owner, so releasing it is one FreeOwner.
type sharedRegion struct {
	bytes uint64
	refs  int
	owner Owner
}

// ErrNoShare is returned when releasing or breaking an unknown key.
var ErrNoShare = errors.New("mm: no such shared region")

// NewSharePool creates a pool over alloc.
func NewSharePool(alloc *Allocator) *SharePool {
	return &SharePool{alloc: alloc, pages: make(map[string]*sharedRegion), nextOwner: 1 << 28}
}

// Acquire maps the shared region key of the given size into a guest:
// the first acquirer pays the allocation, later ones only bump the
// reference count (that is the entire saving). It returns the number
// of bytes newly allocated (0 on a share hit).
func (p *SharePool) Acquire(key string, bytes uint64) (uint64, error) {
	if bytes == 0 {
		return 0, errors.New("mm: zero-byte share")
	}
	r, ok := p.pages[key]
	if ok {
		if r.bytes != bytes {
			return 0, fmt.Errorf("mm: shared region %q is %d bytes, requested %d", key, r.bytes, bytes)
		}
		r.refs++
		return 0, nil
	}
	if err := p.alloc.AllocBytes(bytes, p.nextOwner); err != nil {
		return 0, err
	}
	p.pages[key] = &sharedRegion{bytes: bytes, refs: 1, owner: p.nextOwner}
	p.nextOwner++
	return bytes, nil
}

// Release drops one reference; the region is freed when the last
// sharer goes away.
func (p *SharePool) Release(key string) error {
	r, ok := p.pages[key]
	if !ok {
		return fmt.Errorf("%w: %q", ErrNoShare, key)
	}
	r.refs--
	if r.refs > 0 {
		return nil
	}
	p.alloc.FreeOwner(r.owner)
	delete(p.pages, key)
	return nil
}

// Refs reports the sharer count of a region (0 if absent).
func (p *SharePool) Refs(key string) int {
	if r, ok := p.pages[key]; ok {
		return r.refs
	}
	return 0
}

// SharedBytes reports total memory held by shared regions (counted
// once, however many sharers there are).
func (p *SharePool) SharedBytes() uint64 {
	var n uint64
	for _, r := range p.pages {
		n += r.bytes
	}
	return n
}

// Regions reports the number of distinct shared regions.
func (p *SharePool) Regions() int { return len(p.pages) }
