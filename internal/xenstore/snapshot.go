package xenstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Snapshot is an immutable capture of the store at one published
// version. Taking one is O(1) — a copy of the root pointer — because
// no mutation edits a node that a snapshot can reach (tree.go); the
// snapshot stays frozen forever while the live store keeps moving.
//
// Snapshots never charge the virtual clock: capturing one models a
// pointer swap inside the daemon, and reading one models the consumer
// (toolstack, migration code) walking its own frozen copy without a
// round trip to the daemon. Consumers that want the protocol-level
// cost of asking the daemon for a snapshot charge
// costs.CostStoreSnapshot on their own clock (see internal/migrate).
type Snapshot struct {
	root *node
	gen  uint64
}

// Snapshot captures the current store state in O(1). It bumps the
// pool's snapshot epoch: the snapshot may reach any object allocated
// so far, so from now on mutations copy them instead of editing them
// in place, and the pool recycles none of them (pool.go).
func (s *Store) Snapshot() *Snapshot {
	s.pl.epoch++
	s.Count.Snapshots++
	return &Snapshot{root: s.root, gen: s.gen}
}

// Gen reports the store generation the snapshot was taken at.
func (sn *Snapshot) Gen() uint64 { return sn.gen }

// NumNodes reports how many nodes the snapshot captured, including its
// own root. It walks the whole captured tree.
func (sn *Snapshot) NumNodes() int { return countNodes(sn.root) }

// Lookup returns the entry at path inside the frozen tree.
func (sn *Snapshot) Lookup(path string) Entry {
	n, _ := resolveFrom(sn.root, path)
	return Entry{n}
}

// Lookup returns the entry at path in the live tree. Unlike
// Snapshot().Lookup it takes no snapshot, so it leaves the pool's
// snapshot epoch alone and every node it reaches stays editable in
// place and recyclable; in exchange the entry, and every entry reached
// from it, is valid only until the store's next mutation. It charges
// no virtual time.
func (s *Store) Lookup(path string) Entry {
	n, _ := resolveFrom(s.root, path)
	return Entry{n}
}

// Entry is a handle on one node of a snapshot's frozen tree or, from
// Store.Lookup, of the live tree; the zero Entry is a missing node.
// Walking from a Lookup with Child and Each builds no path and no
// listing, so an audit of every guest's registry entries
// (toolstack.Fsck) allocates nothing per guest. Reading an entry
// charges no virtual time.
type Entry struct{ n *node }

// Exists reports whether the entry names a node.
func (e Entry) Exists() bool { return e.n != nil }

// Value returns the node's value ("" for a missing node).
func (e Entry) Value() string {
	if e.n == nil {
		return ""
	}
	return e.n.value
}

// Child returns the direct child called name.
func (e Entry) Child(name string) Entry {
	if e.n == nil {
		return Entry{}
	}
	return Entry{e.n.childByID(nameHash(name), name)}
}

// Each calls fn on every direct child in trie order: deterministic
// for given contents, but not sorted.
func (e Entry) Each(fn func(name string, child Entry)) {
	if e.n == nil {
		return
	}
	e.n.eachChild(func(c *node) bool {
		fn(c.name, Entry{c})
		return true
	})
}

// Subtree returns a snapshot rooted at path (sharing the same frozen
// nodes; O(depth of path)).
func (sn *Snapshot) Subtree(path string) (*Snapshot, error) {
	n, _ := resolveFrom(sn.root, path)
	if n == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoEnt, path)
	}
	return &Snapshot{root: n, gen: sn.gen}, nil
}

// ---------------------------------------------------------------------------
// Serialization. The format is canonical: children are emitted in
// sorted name order and every varint is minimal, so for any blob that
// DeserializeSnapshot accepts, Serialize(Deserialize(blob)) == blob.
// FuzzSnapshotRoundTrip leans on that exact property.
// ---------------------------------------------------------------------------

// snapMagic versions the wire format.
const snapMagic = "xsnap2\n"

// ErrBadSnapshot is returned for malformed or non-canonical blobs.
var ErrBadSnapshot = errors.New("xenstore: malformed snapshot")

// Serialize encodes the snapshot into the canonical byte format.
func (sn *Snapshot) Serialize() []byte { return encode(sn.root, sn.gen) }

// SerializeSubtree encodes the subtree at path in the canonical
// snapshot format, byte-identical to
// Snapshot().Subtree(path).Serialize(). Unlike that chain it retains
// no reference to the tree after returning, so it does not bump the
// snapshot epoch: a checkpoint save no longer excludes every node whose
// lifetime spans it from pool recycling. Callers that keep a live Snapshot (clone's
// same-store graft) must still use Snapshot().
func (s *Store) SerializeSubtree(path string) ([]byte, error) {
	n, _ := resolveFrom(s.root, path)
	if n == nil {
		return nil, fmt.Errorf("%w: %s", ErrNoEnt, path)
	}
	s.Count.Snapshots++
	return encode(n, s.gen), nil
}

// encode serializes the tree under root at generation gen. One walk
// counts the nodes to presize the buffer, so each blob is one
// allocation.
func encode(root *node, gen uint64) []byte {
	buf := make([]byte, 0, 64+countNodes(root)*24)
	buf = append(buf, snapMagic...)
	buf = binary.AppendUvarint(buf, gen)
	var scratch []*node
	return appendNode(buf, root, &scratch)
}

// appendNode encodes one node and its children (sorted by name).
func appendNode(buf []byte, n *node, scratch *[]*node) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(n.name)))
	buf = append(buf, n.name...)
	buf = binary.AppendUvarint(buf, uint64(len(n.value)))
	buf = append(buf, n.value...)
	buf = binary.AppendUvarint(buf, n.gen)
	buf = binary.AppendUvarint(buf, uint64(n.nkids))
	// Children are collected into a shared scratch stack (one backing
	// array per Serialize instead of one slice per node) and sorted
	// with a tiny insertion sort: child lists are small, and this
	// keeps the encoder free of per-node sort machinery allocations.
	// Deeper recursion only appends past start and truncates back, so
	// the kids view stays intact even if the stack reallocates.
	start := len(*scratch)
	*scratch = appendChildren(n.kids, *scratch)
	kids := (*scratch)[start:]
	for i := 1; i < len(kids); i++ {
		for j := i; j > 0 && kids[j].name < kids[j-1].name; j-- {
			kids[j], kids[j-1] = kids[j-1], kids[j]
		}
	}
	for i := range kids {
		buf = appendNode(buf, kids[i], scratch)
	}
	*scratch = (*scratch)[:start]
	return buf
}

// snapReader is a bounds-checked cursor over a snapshot blob.
type snapReader struct {
	data   []byte
	off    int
	maxGen uint64
	// interned deduplicates the blob's strings: xenstore trees repeat
	// the same handful of names and values across every device
	// directory ("state", "event-channel", "1", ...), so each decoded
	// string is materialized once per blob and shared thereafter. The
	// map is keyed by its own values, so lookups from the raw byte
	// window never allocate.
	interned map[string]string
	// kids stacks the children of every directory being decoded, the
	// innermost last. It starts in the inline array stack and moves to
	// the heap only if it outgrows it.
	kids  []*node
	stack [16]*node
}

// uvarint reads a minimally-encoded varint (non-minimal encodings are
// rejected to keep the format canonical).
func (r *snapReader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.data[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("%w: truncated varint at %d", ErrBadSnapshot, r.off)
	}
	if n > 1 && r.data[r.off+n-1] == 0 {
		return 0, fmt.Errorf("%w: non-minimal varint at %d", ErrBadSnapshot, r.off)
	}
	r.off += n
	return v, nil
}

// str reads a length-prefixed string.
func (r *snapReader) str() (string, error) {
	l, err := r.uvarint()
	if err != nil {
		return "", err
	}
	if l > uint64(len(r.data)-r.off) {
		return "", fmt.Errorf("%w: string length %d overruns input", ErrBadSnapshot, l)
	}
	b := r.data[r.off : r.off+int(l)]
	r.off += int(l)
	if s, ok := internTab[string(b)]; ok {
		return s, nil
	}
	if s, ok := r.interned[string(b)]; ok {
		return s, nil
	}
	s := string(b)
	if r.interned == nil {
		r.interned = make(map[string]string, 16)
	}
	r.interned[s] = s
	return s, nil
}

// readNode decodes one node subtree. Child names must be strictly
// ascending (sorted and duplicate-free — the canonical order), and
// child names must be valid single path segments.
func (r *snapReader) readNode(depth int) (*node, error) {
	const maxDepth = 512
	if depth > maxDepth {
		return nil, fmt.Errorf("%w: nesting deeper than %d", ErrBadSnapshot, maxDepth)
	}
	name, err := r.str()
	if err != nil {
		return nil, err
	}
	value, err := r.str()
	if err != nil {
		return nil, err
	}
	gen, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	nkids, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if gen > r.maxGen {
		r.maxGen = gen
	}
	n := &node{name: name, hsh: nameHash(name), value: value, gen: gen}
	// The children collect on r.kids above the entries of the
	// directories being decoded around this one, then build the trie
	// at once, so every level is allocated at its final size.
	base := len(r.kids)
	prev := ""
	for i := uint64(0); i < nkids; i++ {
		c, err := r.readNode(depth + 1)
		if err != nil {
			return nil, err
		}
		if !validSegment(c.name) {
			return nil, fmt.Errorf("%w: bad child name %q", ErrBadSnapshot, c.name)
		}
		if i > 0 && c.name <= prev {
			return nil, fmt.Errorf("%w: children out of order (%q after %q)", ErrBadSnapshot, c.name, prev)
		}
		prev = c.name
		r.kids = append(r.kids, c)
	}
	k := len(r.kids) - base
	if k == 0 {
		return n, nil
	}
	// amtBuild's scratch is the stack's spare room past these children.
	r.kids = slices.Grow(r.kids, k)
	kids, scratch := r.kids[base:], r.kids[len(r.kids):len(r.kids)+k]
	n.kids = amtBuild(kids, scratch, 0)
	n.nkids = k
	clear(kids)
	r.kids = r.kids[:base]
	return n, nil
}

// validSegment reports whether s can be one path component.
func validSegment(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] == '/' {
			return false
		}
	}
	return true
}

// DeserializeSnapshot decodes a blob produced by Serialize, validating
// structure, bounds and canonical ordering. The resulting snapshot's
// generation is at least the largest node generation it contains, so
// grafting it never rewinds a destination store's generation order.
func DeserializeSnapshot(data []byte) (*Snapshot, error) {
	if len(data) < len(snapMagic) || string(data[:len(snapMagic)]) != snapMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrBadSnapshot)
	}
	r := &snapReader{data: data, off: len(snapMagic)}
	r.kids = r.stack[:0]
	gen, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	root, err := r.readNode(0)
	if err != nil {
		return nil, err
	}
	if root.name != "/" && !validSegment(root.name) {
		return nil, fmt.Errorf("%w: bad root name %q", ErrBadSnapshot, root.name)
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadSnapshot, len(data)-r.off)
	}
	if r.maxGen > gen {
		return nil, fmt.Errorf("%w: node generation %d exceeds snapshot generation %d", ErrBadSnapshot, r.maxGen, gen)
	}
	return &Snapshot{root: root, gen: gen}, nil
}

// ---------------------------------------------------------------------------
// Grafting: installing a frozen subtree into a live store.
// ---------------------------------------------------------------------------

// lastSegment returns the final component of path ("" for the root).
func lastSegment(path string) string {
	it := hashSegments(path)
	last := ""
	for {
		seg, _, ok := it.next()
		if !ok {
			return last
		}
		last = seg
	}
}

// GraftSnapshot installs the subtree at srcPath of sn under dstPath,
// replacing whatever is there. The grafted nodes are shared with the
// snapshot (structural sharing: only the destination spine and the
// grafted root are copied), which is what makes restore and clone
// independent of subtree size. The grafted root gets a fresh
// generation; interior nodes keep their captured generations, and the
// store's counter is advanced past the snapshot's so generation order
// stays monotonic even for snapshots carried over from another store.
// One op is charged and watches fire once, on dstPath.
func (s *Store) GraftSnapshot(sn *Snapshot, srcPath, dstPath string) error {
	s.enter()
	defer s.exit()
	sub, _ := resolveFrom(sn.root, srcPath)
	if sub == nil {
		s.chargeOp(1)
		return fmt.Errorf("%w: snapshot path %s", ErrNoEnt, srcPath)
	}
	name := lastSegment(dstPath)
	if name == "" {
		s.chargeOp(1)
		return errors.New("xenstore: cannot graft onto the root")
	}
	if sn.gen > s.gen {
		s.gen = sn.gen
	}
	grafted := sub.clone(s.pl)
	grafted.name = name
	grafted.hsh = nameHash(name) // renamed: its segment id moves with it
	s.gen++
	grafted.gen = s.gen
	it := hashSegments(dstPath)
	op := leafOp{kind: leafReplace, repl: grafted}
	newRoot, touched, _ := s.applyWrite(s.root, &it, &op)
	s.publish(newRoot)
	s.chargeOp(touched + s.matchCost())
	s.fireWatches(dstPath)
	return nil
}
