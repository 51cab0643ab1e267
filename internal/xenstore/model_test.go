package xenstore

// Model-checking harness: seeded random operation sequences run
// against the copy-on-write store AND a deliberately dumb reference
// model (a flat map of paths). Any divergence — values, listings,
// errors, watch firings, transaction conflicts, or a mid-sequence
// snapshot that fails to stay frozen — fails with the seed and
// operation index, so a failure reproduces by seed alone.
//
// The reference model mirrors the store's *semantics*, including its
// generation-bump discipline (parents bump when a child is created
// beneath them, leaves bump on value writes, Rm bumps the parent), so
// transaction conflict detection is predicted exactly rather than
// approximated.
//
// Every watch callback reads the fired path's directory back from the
// live store — each sibling's name and value — and the model predicts
// that view from its own state at the same instant. A commit in the
// model applies its whole write set before firing anything, so a
// callback that saw a transaction half applied fails the comparison:
// commit atomicity is checked against the model.

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"time"
)

// ---------------------------------------------------------------------------
// Reference model
// ---------------------------------------------------------------------------

type refNode struct {
	value string
	gen   uint64
}

type refWatch struct {
	prefix string
	token  string
	active bool
}

// watchEvent is one delivery: the fired path, the watch's token and
// the callback's view of the path's directory (siblingView).
type watchEvent struct {
	path  string
	token string
	view  string
}

type refStore struct {
	nodes   map[string]*refNode // normalized path → node; "/" always present
	gen     uint64
	watches []*refWatch // registration order (matches store delivery order)
	events  []watchEvent
}

func newRefStore() *refStore {
	return &refStore{nodes: map[string]*refNode{"/": {}}}
}

func refParent(p string) string {
	i := strings.LastIndexByte(p, '/')
	if i <= 0 {
		return "/"
	}
	return p[:i]
}

func (m *refStore) fire(path string) {
	for _, w := range m.watches {
		if w.active && watchMatches(w.prefix, path) {
			m.events = append(m.events, watchEvent{path, w.token, m.siblingView(path)})
		}
	}
}

// childPath joins a directory and a child name.
func childPath(dir, name string) string {
	if dir == "/" {
		return "/" + name
	}
	return dir + "/" + name
}

// siblingView renders the directory holding p as the model has it now:
// every child's name and value, in sorted order.
func (m *refStore) siblingView(p string) string {
	dir := refParent(p)
	if !m.exists(dir) {
		return "noent"
	}
	var sb strings.Builder
	for _, c := range m.children(dir) {
		fmt.Fprintf(&sb, "%s=%s;", c, m.nodes[childPath(dir, c)].value)
	}
	return sb.String()
}

// storeSiblingView is siblingView read from the live store, through
// the same charged operations a watch handler would issue.
func storeSiblingView(s *Store, p string) string {
	dir := refParent(p)
	names, err := s.Directory(dir)
	if err != nil {
		return "noent"
	}
	var sb strings.Builder
	for _, c := range names {
		v, err := s.Read(childPath(dir, c))
		if err != nil {
			v = err.Error()
		}
		fmt.Fprintf(&sb, "%s=%s;", c, v)
	}
	return sb.String()
}

// ensure creates missing components of p, bumping each parent's
// generation at the moment of creation (the store's top-down order).
// Reports how many components it created.
func (m *refStore) ensure(p string) int {
	segs := strings.Split(strings.Trim(p, "/"), "/")
	cur, parent := "", "/"
	created := 0
	for _, seg := range segs {
		cur += "/" + seg
		if _, ok := m.nodes[cur]; !ok {
			m.nodes[cur] = &refNode{}
			m.gen++
			m.nodes[parent].gen = m.gen
			created++
		}
		parent = cur
	}
	return created
}

// set applies a write without firing watches.
func (m *refStore) set(p, value string) {
	m.ensure(p)
	m.gen++
	n := m.nodes[p]
	n.gen = m.gen
	n.value = value
}

func (m *refStore) write(p, value string) {
	m.set(p, value)
	m.fire(p)
}

func (m *refStore) read(p string) (string, error) {
	n, ok := m.nodes[p]
	if !ok {
		return "", ErrNoEnt
	}
	return n.value, nil
}

func (m *refStore) exists(p string) bool {
	_, ok := m.nodes[p]
	return ok
}

func (m *refStore) children(p string) []string {
	prefix := p + "/"
	if p == "/" {
		prefix = "/"
	}
	var out []string
	for q := range m.nodes {
		if q == "/" || !strings.HasPrefix(q, prefix) {
			continue
		}
		rest := q[len(prefix):]
		if !strings.ContainsRune(rest, '/') {
			out = append(out, rest)
		}
	}
	sort.Strings(out)
	return out
}

func (m *refStore) directory(p string) ([]string, error) {
	if !m.exists(p) {
		return nil, ErrNoEnt
	}
	return m.children(p), nil
}

func (m *refStore) rm(p string) error {
	if p == "/" {
		return errors.New("cannot remove root")
	}
	if !m.exists(p) {
		return ErrNoEnt
	}
	for q := range m.nodes {
		if q == p || strings.HasPrefix(q, p+"/") {
			delete(m.nodes, q)
		}
	}
	m.gen++
	m.nodes[refParent(p)].gen = m.gen
	m.fire(p)
	return nil
}

func (m *refStore) mkdir(p string) {
	if m.ensure(p) > 0 {
		m.fire(p)
	}
}

func (m *refStore) writeUniqueName(dir, key, name string) error {
	if m.exists(dir) {
		for _, c := range m.children(dir) {
			if m.nodes[dir+"/"+c].value == name {
				return ErrExists
			}
		}
	}
	m.write(dir+"/"+key, name)
	return nil
}

// refTx mirrors txn.go's buffered transaction.
type refTx struct {
	startGen uint64
	readGens map[string]uint64
	writes   map[string]string
	order    []string
}

func (m *refStore) txnStart() *refTx {
	return &refTx{
		startGen: m.gen,
		readGens: map[string]uint64{},
		writes:   map[string]string{},
	}
}

func (t *refTx) observe(m *refStore, p string) {
	if _, ok := t.readGens[p]; ok {
		return
	}
	if n, ok := m.nodes[p]; ok {
		t.readGens[p] = n.gen
	} else {
		t.readGens[p] = 0
	}
}

func (t *refTx) read(m *refStore, p string) (string, error) {
	if v, ok := t.writes[p]; ok {
		return v, nil
	}
	t.observe(m, p)
	return m.read(p)
}

func (t *refTx) write(p, v string) {
	if _, ok := t.writes[p]; !ok {
		t.order = append(t.order, p)
	}
	t.writes[p] = v
}

// commit reports whether the transaction conflicts (ErrAgain on the
// real store) and applies it when it does not: every write first, in
// first-write order, then one watch fire per write in the same order.
func (t *refTx) commit(m *refStore) bool {
	conflict := false
	for p, g := range t.readGens {
		n, ok := m.nodes[p]
		if (!ok && g != 0) || (ok && n.gen != g) {
			conflict = true
			break
		}
	}
	if !conflict {
		for p := range t.writes {
			if n, ok := m.nodes[p]; ok && n.gen > t.startGen {
				conflict = true
				break
			}
		}
	}
	if conflict {
		return true
	}
	for _, p := range t.order {
		m.set(p, t.writes[p])
	}
	for _, p := range t.order {
		m.fire(p)
	}
	return false
}

// snapshotCopy deep-copies the model's node map for frozen comparison.
func (m *refStore) snapshotCopy() map[string]refNode {
	out := make(map[string]refNode, len(m.nodes))
	for p, n := range m.nodes {
		out[p] = *n
	}
	return out
}

// ---------------------------------------------------------------------------
// Harness
// ---------------------------------------------------------------------------

var modelSegs = []string{"a", "b", "c", "d", "local", "domain", "0", "1", "2", "3"}

func randPath(r *rand.Rand) string {
	depth := 1 + r.Intn(3)
	var sb strings.Builder
	for i := 0; i < depth; i++ {
		sb.WriteByte('/')
		sb.WriteString(modelSegs[r.Intn(len(modelSegs))])
	}
	return sb.String()
}

func randValue(r *rand.Rand) string {
	return fmt.Sprintf("v%d", r.Intn(40))
}

// frozenPair is a mid-sequence snapshot with its model copy.
type frozenPair struct {
	opIndex int
	sn      *Snapshot
	want    map[string]refNode
}

// openTxn pairs a live transaction with its model twin.
type openTxn struct {
	tx *Tx
	rt *refTx
}

// maxTreeGen returns the largest node generation under n.
func maxTreeGen(n *node) uint64 {
	g := n.gen
	n.eachChild(func(c *node) bool {
		g = max(g, maxTreeGen(c))
		return true
	})
	return g
}

// checkGenBound fails t when a node under root carries a generation
// above gen, the counter of the store or snapshot root belongs to.
// Quiet commits (txn.go) skip their validation walk on the strength of
// that bound.
func checkGenBound(t *testing.T, root *node, gen uint64) {
	t.Helper()
	if g := maxTreeGen(root); g > gen {
		t.Fatalf("node generation %d exceeds generation %d", g, gen)
	}
}

func sameErr(got error, want error) bool {
	if want == nil {
		return got == nil
	}
	return errors.Is(got, want)
}

func runModelSequence(t *testing.T, seed int64, ops int) {
	r := rand.New(rand.NewSource(seed))
	s, _ := newStore()
	m := newRefStore()

	var realEvents []watchEvent

	var txns []openTxn
	var frozen []frozenPair

	fail := func(op int, format string, args ...any) {
		t.Helper()
		t.Fatalf("seed %d op %d: %s", seed, op, fmt.Sprintf(format, args...))
	}

	for op := 0; op < ops; op++ {
		switch k := r.Intn(100); {
		case k < 26: // write
			p, v := randPath(r), randValue(r)
			s.Write(p, v)
			m.write(p, v)
		case k < 40: // read
			p := randPath(r)
			got, gotErr := s.Read(p)
			want, wantErr := m.read(p)
			if got != want || !sameErr(gotErr, wantErr) {
				fail(op, "Read(%q): store (%q, %v), model (%q, %v)", p, got, gotErr, want, wantErr)
			}
		case k < 46: // exists
			p := randPath(r)
			if got, want := s.Exists(p), m.exists(p); got != want {
				fail(op, "Exists(%q): store %v, model %v", p, got, want)
			}
		case k < 55: // directory
			p := randPath(r)
			got, gotErr := s.Directory(p)
			want, wantErr := m.directory(p)
			if !sameErr(gotErr, wantErr) || !equalStrings(got, want) {
				fail(op, "Directory(%q): store (%v, %v), model (%v, %v)", p, got, gotErr, want, wantErr)
			}
		case k < 62: // rm
			p := randPath(r)
			gotErr := s.Rm(p)
			wantErr := m.rm(p)
			if !sameErr(gotErr, wantErr) {
				fail(op, "Rm(%q): store %v, model %v", p, gotErr, wantErr)
			}
		case k < 66: // mkdir
			p := randPath(r)
			s.Mkdir(p)
			m.mkdir(p)
		case k < 70: // unique-name registration
			dir, key, name := randPath(r), modelSegs[r.Intn(len(modelSegs))], randValue(r)
			gotErr := s.WriteUniqueName(dir, key, name)
			wantErr := m.writeUniqueName(dir, key, name)
			if !sameErr(gotErr, wantErr) {
				fail(op, "WriteUniqueName(%q, %q, %q): store %v, model %v", dir, key, name, gotErr, wantErr)
			}
		case k < 74: // register a watch
			p, tok := randPath(r), fmt.Sprintf("t%d", r.Intn(8))
			s.Watch(p, tok, func(path, token string) {
				realEvents = append(realEvents, watchEvent{path, token, storeSiblingView(s, path)})
			})
			m.watches = append(m.watches, &refWatch{prefix: p, token: tok, active: true})
		case k < 77: // drop every watch registered with one token
			tok := fmt.Sprintf("t%d", r.Intn(8))
			want := 0
			for _, w := range m.watches {
				if w.active && w.token == tok {
					w.active = false
					want++
				}
			}
			if got := s.UnwatchByToken(tok); got != want {
				fail(op, "UnwatchByToken(%q): store removed %d, model %d", tok, got, want)
			}
		case k < 81: // freeze a snapshot mid-sequence
			frozen = append(frozen, frozenPair{opIndex: op, sn: s.Snapshot(), want: m.snapshotCopy()})
		default: // transaction step (interleaved: up to 3 open at once)
			if len(txns) < 3 && (len(txns) == 0 || r.Intn(2) == 0) {
				txns = append(txns, openTxn{tx: s.TxnStart(), rt: m.txnStart()})
				continue
			}
			i := r.Intn(len(txns))
			o := txns[i]
			switch r.Intn(7) {
			case 0, 1, 2: // txn read
				p := randPath(r)
				got, gotErr := o.tx.Read(p)
				want, wantErr := o.rt.read(m, p)
				if got != want || !sameErr(gotErr, wantErr) {
					fail(op, "Tx.Read(%q): store (%q, %v), model (%q, %v)", p, got, gotErr, want, wantErr)
				}
			case 3, 4: // txn write
				p, v := randPath(r), randValue(r)
				o.tx.Write(p, v)
				o.rt.write(p, v)
			case 5: // commit — conflict prediction must match exactly
				gotErr := o.tx.Commit()
				wantConflict := o.rt.commit(m)
				if wantConflict != errors.Is(gotErr, ErrAgain) || (!wantConflict && gotErr != nil) {
					fail(op, "Tx.Commit: store %v, model conflict=%v", gotErr, wantConflict)
				}
				txns = append(txns[:i], txns[i+1:]...)
			case 6: // abort
				o.tx.Abort()
				txns = append(txns[:i], txns[i+1:]...)
			}
		}

		if g := maxTreeGen(s.loaded().root); g > s.gen {
			fail(op, "node generation %d exceeds store generation %d", g, s.gen)
		}
		if len(realEvents) != len(m.events) {
			fail(op, "watch event count diverged: store %d, model %d (store %v, model %v)",
				len(realEvents), len(m.events), realEvents, m.events)
		}
	}

	for _, o := range txns {
		o.tx.Abort()
	}

	// Watch firing order and content must match event-for-event.
	for i := range m.events {
		if realEvents[i] != m.events[i] {
			t.Fatalf("seed %d: watch event %d diverged: store %+v, model %+v", seed, i, realEvents[i], m.events[i])
		}
	}

	// Full end-state equivalence, read through a snapshot so the
	// comparison itself charges nothing.
	end := s.Snapshot()
	if got, want := end.NumNodes(), len(m.nodes); got != want {
		t.Fatalf("seed %d: node count: store %d, model %d", seed, got, want)
	}
	for p, n := range m.nodes {
		v, err := end.Read(p)
		if err != nil || v != n.value {
			t.Fatalf("seed %d: end state %q: store (%q, %v), model %q", seed, p, v, err, n.value)
		}
		got, err := end.Directory(p)
		if err != nil || !equalStrings(got, m.children(p)) {
			t.Fatalf("seed %d: end children of %q: store (%v, %v), model %v", seed, p, got, err, m.children(p))
		}
	}
	// The store must also self-audit clean after every sequence: cached
	// sizes and child counts match the tree.
	if v := s.CheckConsistency(); len(v) != 0 {
		t.Fatalf("seed %d: CheckConsistency: %v", seed, v)
	}

	// Every mid-sequence snapshot must still match the model copy taken
	// at the same instant — frozen, regardless of everything since.
	for _, fz := range frozen {
		if got, want := fz.sn.NumNodes(), len(fz.want); got != want {
			t.Fatalf("seed %d: snapshot@op%d node count: store %d, model %d", seed, fz.opIndex, got, want)
		}
		for p, n := range fz.want {
			v, err := fz.sn.Read(p)
			if err != nil || v != n.value {
				t.Fatalf("seed %d: snapshot@op%d %q: store (%q, %v), model %q", seed, fz.opIndex, p, v, err, n.value)
			}
		}
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestModelCheckStore runs ≥1,000 seeded sequences (the acceptance
// floor) of ~90 operations each. A failure message carries the seed;
// rerun with -run TestModelCheckStore on the same build to reproduce.
func TestModelCheckStore(t *testing.T) {
	const sequences = 1200
	const opsPerSequence = 90
	start := time.Now()
	for seed := int64(1); seed <= sequences; seed++ {
		runModelSequence(t, seed, opsPerSequence)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Fatalf("model check took %v for %d sequences, budget is 30s", d, sequences)
	}
}

// TestModelCheckLongSequences drives fewer but much longer sequences,
// deep enough for log rotation (13,215 lines) and long watch and
// transaction histories to occur inside a single store lifetime.
func TestModelCheckLongSequences(t *testing.T) {
	for seed := int64(10_000); seed < 10_004; seed++ {
		runModelSequence(t, seed, 4000)
	}
}
