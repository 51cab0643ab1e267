package xenstore

import (
	"fmt"
	"sort"
)

// CheckConsistency audits the store's internal bookkeeping against the
// tree itself and reports every discrepancy as a human-readable
// string (empty slice = consistent). It is the store-local leg of the
// cross-layer invariant checker (toolstack.Fsck) and also runs inside
// the model-check harness after every operation sequence.
//
// It checks that every node's cached child count (nkids) matches its
// trie: Directory charges by nkids, so a stale count silently
// misprices listings.
//
// Like Snapshot, it only reads the published root and charges no
// virtual time, so experiments can audit themselves without
// perturbing their own figures.
func (s *Store) CheckConsistency() []string {
	var out []string
	var walk func(path string, n *node)
	walk = func(path string, n *node) {
		kids := 0
		n.eachChild(func(c *node) bool {
			kids++
			walk(path+"/"+c.name, c)
			return true
		})
		if kids != n.nkids {
			out = append(out, fmt.Sprintf("node %s: nkids %d, trie has %d children", path, n.nkids, kids))
		}
	}
	walk("", s.root)
	sort.Strings(out)
	return out
}
