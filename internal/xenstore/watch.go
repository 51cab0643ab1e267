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
		d := prefixDepth(w.prefix)
		for len(s.watchDepths) <= d {
			s.watchDepths = append(s.watchDepths, 0)
		}
		s.watchDepths[d]++
	}
	s.chargeOp(1)
}

// prefixDepth is the depth mergeCandidates probes a normalized prefix
// at: its '/' count ("/a" is 1, "/a/b" is 2).
func prefixDepth(prefix string) int { return strings.Count(prefix, "/") }

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
	s.watchDepths[prefixDepth(w.prefix)]--
	// Keep the deepest entry non-zero: delivery stops probing past it.
	for n := len(s.watchDepths); n > 0 && s.watchDepths[n-1] == 0; n-- {
		s.watchDepths = s.watchDepths[:n-1]
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
// single-list scan. Only ancestors at a depth that holds an indexed
// watch are looked up, and the walk stops past the deepest such depth:
// most ancestors of a written path sit at depths no watch is
// registered at (DESIGN.md §9). Per-depth buffers keep re-entrant fires
// (a watch callback writing, which fires watches again) from
// clobbering an iteration in progress, without allocating per fire.
func (s *Store) mergeCandidates(depth int, p string) []*watch {
	for len(s.fireBufs) <= depth {
		s.fireBufs = append(s.fireBufs, nil)
		s.mergeBufs = append(s.mergeBufs, nil)
	}
	bufs := s.mergeBufs[depth][:0]
	if len(s.rootWatches) > 0 {
		bufs = append(bufs, s.rootWatches)
	}
	if p != "/" {
		// Every ancestor prefix p[:end] of p, including p itself, at
		// prefix depth d; it starts at segment i.
		for i, d := 1, 1; d < len(s.watchDepths); d++ {
			end := len(p)
			j := strings.IndexByte(p[i:], '/')
			if j >= 0 {
				end = i + j
			}
			if s.watchDepths[d] > 0 {
				if b := s.watchIndex[p[:end]]; len(b) > 0 {
					bufs = append(bufs, b)
				}
			}
			if j < 0 {
				break
			}
			i = end + 1
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
// on the path's ancestors (prefix-indexed, so delivery does at most
// one bucket lookup per watched depth instead of scanning every watch)
// plus the root watches, merged by registration id — every candidate
// matches by construction.
func (s *Store) fireWatches(path string) {
	if len(s.watchIndex) == 0 && len(s.rootWatches) == 0 {
		return
	}
	p := normalize(path)
	cands := s.mergeCandidates(s.fireDepth, p)
	s.fireDepth++
	for _, w := range cands {
		s.Count.WatchFires++
		s.clock.Sleep(sim.Duration(costs.XSWatchFire))
		w.fn(p, w.token)
	}
	s.fireDepth--
}
