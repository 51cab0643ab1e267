package xenstore

import (
	"sort"
	"strings"

	"lightvm/internal/costs"
	"lightvm/internal/sim"
)

// WatchFn is a watch callback: it receives the modified path and the
// token supplied at registration. Callbacks run inline at modification
// time (after the upcall cost is charged), matching the event-channel
// kick oxenstored sends; handlers that model slow backends should
// schedule their real work on the clock rather than block.
type WatchFn func(path, token string)

type watch struct {
	id     int
	prefix string
	token  string
	fn     WatchFn
}

// Watch registers fn on path: it fires for modifications of the node
// or anything beneath it (Xen semantics). Watches are indexed by their
// full normalized prefix; buckets stay sorted by id because ids only
// grow. Watches are removed by token (UnwatchByToken).
func (s *Store) Watch(path, token string, fn WatchFn) {
	s.batchValid = false
	s.nextWatch++
	w := &watch{id: s.nextWatch, prefix: normalize(path), token: token, fn: fn}
	s.watches = append(s.watches, w)
	if w.prefix == "/" {
		s.rootWatches = append(s.rootWatches, w)
	} else {
		if s.watchIndex == nil {
			s.watchIndex = make(map[string][]*watch)
		}
		s.watchIndex[w.prefix] = append(s.watchIndex[w.prefix], w)
	}
	s.chargeOp(1)
}

// dropIndexed removes w from its index bucket, preserving order.
func (s *Store) dropIndexed(w *watch) {
	if w.prefix == "/" {
		s.rootWatches = removeWatch(s.rootWatches, w)
		return
	}
	bucket := removeWatch(s.watchIndex[w.prefix], w)
	if len(bucket) == 0 {
		delete(s.watchIndex, w.prefix)
	} else {
		s.watchIndex[w.prefix] = bucket
	}
}

func removeWatch(ws []*watch, w *watch) []*watch {
	for i, x := range ws {
		if x == w {
			return append(ws[:i], ws[i+1:]...)
		}
	}
	return ws
}

// UnwatchByToken removes every watch registered with token (device
// teardown: the netfront's watch dies with its device).
func (s *Store) UnwatchByToken(token string) int {
	s.batchValid = false
	removed := 0
	out := s.watches[:0]
	for _, w := range s.watches {
		if w.token == token {
			s.dropIndexed(w)
			removed++
			continue
		}
		out = append(out, w)
	}
	s.watches = out
	s.chargeOp(1)
	return removed
}

// NumWatches reports registered watches (diagnostic).
func (s *Store) NumWatches() int { return len(s.watches) }

// WatchTokens lists every registered watch's token, sorted. Clock-free
// — the invariant checker uses it to find watches whose owning domain
// is gone (each orphan inflates matchCost on every subsequent write,
// one of the ways crash residue slows the store down).
func (s *Store) WatchTokens() []string {
	if len(s.watches) == 0 {
		return nil
	}
	out := make([]string, len(s.watches))
	for i, w := range s.watches {
		out[i] = w.token
	}
	sort.Strings(out)
	return out
}

func normalize(path string) string {
	if len(path) > 1 && path[0] == '/' && path[len(path)-1] != '/' {
		// Already normalized — the overwhelmingly common case on the
		// write path; skip the Trim allocation.
		return path
	}
	return "/" + strings.Trim(path, "/")
}

// matchCost is the per-write overhead of checking the modified path
// against every registered watch. oxenstored does this linear scan on
// each commit point; as guests accumulate watches (each device leaves
// one on its backend directory), writes get slower — one of the
// mechanisms behind the superlinear XenStore curve in Fig. 5.
//
// The *simulated* cost stays linear in the watch count (that is the
// modelled daemon's behaviour); the simulator itself answers in O(1)
// and only walks the modified subtree's own bucket when delivering.
func (s *Store) matchCost(string) int {
	// Each watch comparison costs about one node touch.
	return len(s.watches)
}

// watchMatches reports whether a watch on prefix covers path (the node
// itself or anything beneath it). Both are normalized; the comparison
// allocates nothing.
func watchMatches(prefix, path string) bool {
	if prefix == "/" {
		return true
	}
	if !strings.HasPrefix(path, prefix) {
		return false
	}
	return len(path) == len(prefix) || path[len(prefix)] == '/'
}

// mergeCandidates builds the id-ordered candidate list for a modified
// path into the scratch buffer for the given fire-nesting depth: the
// root bucket plus one bucket per ancestor prefix of p, k-way merged
// by registration id so delivery order matches the historical
// single-list scan. Per-depth buffers keep re-entrant fires (a watch
// callback writing, which fires watches again) from clobbering an
// iteration in progress, without allocating per fire.
func (s *Store) mergeCandidates(depth int, p string) []*watch {
	for len(s.fireBufs) <= depth {
		s.fireBufs = append(s.fireBufs, nil)
		s.mergeBufs = append(s.mergeBufs, nil)
	}
	bufs := s.mergeBufs[depth][:0]
	if len(s.rootWatches) > 0 {
		bufs = append(bufs, s.rootWatches)
	}
	if p != "/" && len(s.watchIndex) > 0 {
		// Every ancestor prefix of p, including p itself.
		for i := 1; i <= len(p); i++ {
			if i == len(p) || p[i] == '/' {
				if b := s.watchIndex[p[:i]]; len(b) > 0 {
					bufs = append(bufs, b)
				}
			}
		}
	}
	s.mergeBufs[depth] = bufs
	buf := s.fireBufs[depth][:0]
	for len(bufs) > 0 {
		min := 0
		for i := 1; i < len(bufs); i++ {
			if bufs[i][0].id < bufs[min][0].id {
				min = i
			}
		}
		buf = append(buf, bufs[min][0])
		if bufs[min] = bufs[min][1:]; len(bufs[min]) == 0 {
			bufs[min] = bufs[len(bufs)-1]
			bufs = bufs[:len(bufs)-1]
		}
	}
	s.fireBufs[depth] = buf
	return buf
}

// fireWatches delivers events for a modified path. The delivery cost
// is charged per matching watch. Candidates are the watches registered
// on the path's ancestors (prefix-indexed, so delivery does O(depth)
// bucket lookups instead of scanning every watch) plus the root
// watches, merged by registration id — every candidate matches by
// construction.
//
// Delivery is batched per commit: repeated fires of the same path
// (touched-parent notifications in a burst of writes) reuse the cached
// depth-0 candidate list until the path changes or the watch set is
// modified. The virtual costs and the fire order are identical to
// merging from scratch — only the repeated merge work disappears.
func (s *Store) fireWatches(path string) {
	if len(s.watchIndex) == 0 && len(s.rootWatches) == 0 {
		return
	}
	p := normalize(path)
	var cands []*watch
	if s.fireDepth == 0 && s.batchValid && s.batchPath == p {
		cands = s.batchCands
	} else {
		cands = s.mergeCandidates(s.fireDepth, p)
		if s.fireDepth == 0 {
			s.batchCands, s.batchPath, s.batchValid = cands, p, true
		}
	}
	s.fireDepth++
	for _, w := range cands {
		s.Count.WatchFires++
		s.clock.Sleep(sim.Duration(costs.XSWatchFire))
		w.fn(p, w.token)
	}
	s.fireDepth--
}
