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
// Checks:
//   - cached subtree sizes match a recount (Rm charges by size, so a
//     stale size silently misprices operations);
//   - cached child counts (nkids) match the trie.
//
// Like Snapshot, it only reads the published root and charges no
// virtual time, so experiments can audit themselves without
// perturbing their own figures.
func (s *Store) CheckConsistency() []string {
	var out []string
	var walk func(path string, n *node) int
	walk = func(path string, n *node) int {
		size, kids := 1, 0
		n.eachChild(func(c *node) bool {
			kids++
			size += walk(path+"/"+c.name, c)
			return true
		})
		if kids != n.nkids {
			out = append(out, fmt.Sprintf("node %s: nkids %d, trie has %d children", path, n.nkids, kids))
		}
		if size != n.size {
			out = append(out, fmt.Sprintf("node %s: cached size %d, recount %d", path, n.size, size))
		}
		return size
	}
	walk("", s.loaded().root)
	sort.Strings(out)
	return out
}
