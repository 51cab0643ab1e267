package xenstore

import (
	"fmt"
	"sort"
	"strings"
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
//
// A path string is built only for a node that fails the check, so a
// clean audit allocates nothing per node.
func (s *Store) CheckConsistency() []string {
	var depth [16]string
	out := checkCounts(s.root, depth[:0], nil)
	sort.Strings(out)
	return out
}

// checkCounts appends to out a report for every node in n's subtree
// whose cached child count disagrees with its trie. names holds the
// path from the root to n, one segment per level.
func checkCounts(n *node, names, out []string) []string {
	kids := 0
	n.eachChild(func(k *node) bool {
		kids++
		out = checkCounts(k, append(names, k.name), out)
		return true
	})
	if kids != n.nkids {
		path := ""
		if len(names) > 0 {
			path = "/" + strings.Join(names, "/")
		}
		out = append(out, fmt.Sprintf("node %s: nkids %d, trie has %d children", path, n.nkids, kids))
	}
	return out
}
