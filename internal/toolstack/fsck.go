package toolstack

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"

	"lightvm/internal/hv"
	"lightvm/internal/xenbus"
)

// Fsck is the cross-layer invariant checker: it cross-references the
// store, the hypervisor, the memory allocator, the noxs module, the
// shell pool and the console daemon against the toolstack's own tables
// and reports everything that no live domain can account for. It is entirely clock-free —
// snapshots and introspection only, no charged operations — so
// experiments can assert on it without perturbing their timelines.
//
// Violations are real leaks. Benign litter that existing flows leave
// on purpose (a migrated-away VM's stale /vm/<name> tree, an empty
// backend parent dir) is NOT a violation — the scrubber counts it as
// residue instead — so a fault-free run of every experiment fscks
// clean.

// nonDomainOwnerBase is the first mm.Owner value reserved for
// non-domain tenants of the host allocator (container engine, process
// runner, dedup pools). Domain IDs stay far below it.
const nonDomainOwnerBase = 1 << 20

// Violation is one broken cross-layer invariant.
type Violation struct {
	Layer   string // xenstore, hv, mm, noxs, pool, console, toolstack
	Kind    string // machine tag, e.g. orphan-domain
	Subject string // the offending object: path, domain, token
	Detail  string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s/%s %s: %s", v.Layer, v.Kind, v.Subject, v.Detail)
}

// Fsck audits one quiescent environment. The caller must ensure no
// lifecycle operation is in flight (violations found mid-operation
// would be torn reads, not leaks).
func Fsck(e *Env) []Violation {
	var out []Violation
	add := func(layer, kind, subject, format string, args ...any) {
		out = append(out, Violation{Layer: layer, Kind: kind, Subject: subject, Detail: fmt.Sprintf(format, args...)})
	}
	live := e.liveDomains()

	// Store-internal consistency (cached child counts).
	for _, p := range e.Store.CheckConsistency() {
		add("xenstore", "store-internal", "", "%s", p)
	}

	snap := e.Store.Snapshot()

	// Orphan registry subtrees and dirty journals.
	if ids, err := snap.Directory("/local/domain"); err == nil {
		sort.Strings(ids)
		for _, s := range ids {
			if id, aerr := strconv.Atoi(s); aerr == nil && id != 0 && !live[hv.DomID(id)] {
				add("xenstore", "orphan-domain-dir", "/local/domain/"+s, "registry subtree for dead domain %d", id)
			}
		}
	}
	// Lease records share the journal but are ownership claims, not
	// intents: a claim is validated (live domain, current epoch), not
	// flagged as dirt.
	checkLease := func(layer string, rec journalRecord) {
		name := strings.TrimPrefix(rec.Key, leasePrefix)
		vm, tracked := e.vms[name]
		if !tracked || vm.Dom == nil {
			add(layer, "lease-without-vm", rec.Key, "ownership claim with no tracked domain (epoch %d)", rec.Epoch)
			return
		}
		if held, ok := e.leases[name]; !ok || held != rec.Epoch {
			add(layer, "lease-epoch-skew", rec.Key, "journal claims epoch %d, in-memory table holds %d", rec.Epoch, e.leases[name])
		}
		if e.LeaseCheck != nil && !e.LeaseCheck(name, rec.Epoch) {
			add(layer, "stale-lease", rec.Key, "epoch %d no longer current — the fence should have scrubbed this copy", rec.Epoch)
		}
	}
	if keys, err := snap.Directory(journalRoot); err == nil {
		sort.Strings(keys)
		for _, k := range keys {
			v, _ := snap.Read(journalRoot + "/" + k)
			if strings.HasPrefix(k, leasePrefix) {
				checkLease("xenstore", parseJournalRecord(k, v))
				continue
			}
			add("xenstore", "journal-dirty", journalRoot+"/"+k, "unrecovered intent: %s", v)
		}
	}
	for _, ent := range e.Noxs.JournalEntries() {
		if strings.HasPrefix(ent.Key, leasePrefix) {
			checkLease("noxs", parseJournalRecord(ent.Key, ent.Record))
			continue
		}
		add("noxs", "journal-dirty", ent.Key, "unrecovered intent: %s", ent.Record)
	}

	// Backend↔frontend pairing: every backend dir must face a frontend
	// dir of a live domain.
	for _, kind := range scrubKinds {
		root := xenbus.BackendDir(kind)
		doms, err := snap.Directory(root)
		if err != nil {
			continue
		}
		sort.Strings(doms)
		for _, ds := range doms {
			id, aerr := strconv.Atoi(ds)
			if aerr != nil {
				continue
			}
			idxs, ierr := snap.Directory(root + "/" + ds)
			if ierr != nil {
				continue
			}
			sort.Strings(idxs)
			for _, is := range idxs {
				idx, xerr := strconv.Atoi(is)
				if xerr != nil {
					continue
				}
				be := root + "/" + ds + "/" + is
				if !live[hv.DomID(id)] {
					add("xenstore", "orphan-backend", be, "backend for dead domain %d", id)
					continue
				}
				if !snap.Exists(xenbus.FrontendPath(hv.DomID(id), kind, idx)) {
					add("xenstore", "backend-without-frontend", be, "no frontend dir for dom %d %s[%d]", id, xenbus.KindName(kind), idx)
				}
			}
		}
	}

	// Orphan frontend watches.
	for _, tok := range e.Store.WatchTokens() {
		if dom, ok := frontendWatchDom(tok); ok && !live[dom] {
			add("xenstore", "orphan-watch", tok, "frontend watch of dead domain %d", dom)
		}
	}

	// Hypervisor: domains, event channels and grants must belong to
	// live domains on both endpoints.
	for _, id := range e.HV.DomainIDs() {
		if !live[id] {
			add("hv", "orphan-domain", strconv.Itoa(int(id)), "hypervisor domain with no toolstack claim")
		}
	}
	for _, ep := range e.HV.PortEndpoints() {
		if (ep.Owner != 0 && !live[ep.Owner]) || (ep.Peer != 0 && !live[ep.Peer]) {
			add("hv", "orphan-port", fmt.Sprintf("%d->%d", ep.Owner, ep.Peer), "event channel endpoint is dead")
		}
	}
	for _, ep := range e.HV.GrantEndpoints() {
		if (ep.Owner != 0 && !live[ep.Owner]) || (ep.Peer != 0 && !live[ep.Peer]) {
			add("hv", "orphan-grant", fmt.Sprintf("%d->%d", ep.Owner, ep.Peer), "grant endpoint is dead")
		}
	}

	// Memory: every charged owner in the domain-ID range must be a live
	// domain. Owners at nonDomainOwnerBase and above belong to other
	// tenants of the allocator (the container engine allocates from
	// 1<<20, the process runner from 1<<24, dedup share pools from
	// 1<<28) and are outside the toolstack's jurisdiction.
	for _, o := range e.HV.Mem.Owners() {
		if o != 0 && o < nonDomainOwnerBase && !live[hv.DomID(o)] {
			add("mm", "orphan-memory", strconv.Itoa(int(o)), "%d bytes owned by dead domain", e.HV.Mem.OwnerBytes(o))
		}
	}

	// Pool: every shell must be backed by a real domain, and no shell
	// may be shared with a tracked VM (a taken shell leaves the pool).
	vmDoms := map[hv.DomID]string{}
	for _, vm := range e.vms {
		if vm.Dom != nil {
			vmDoms[vm.Dom.ID] = vm.Name
		}
	}
	seen := map[hv.DomID]bool{}
	for _, id := range e.Pool.ShellDomIDs() {
		if _, err := e.HV.Domain(id); err != nil {
			add("pool", "missing-shell-domain", strconv.Itoa(int(id)), "pooled shell's domain does not exist")
		}
		if seen[id] {
			add("pool", "duplicate-shell", strconv.Itoa(int(id)), "domain pooled twice")
		}
		seen[id] = true
		if name, ok := vmDoms[id]; ok {
			add("pool", "shell-vm-overlap", strconv.Itoa(int(id)), "pooled shell is also VM %q", name)
		}
	}

	// Console: a guest's ring is attached when it boots and detached
	// with its load, so every ring must belong to a live domain.
	for _, id := range e.Console.Domains() {
		if !live[id] {
			add("console", "orphan-ring", strconv.Itoa(int(id)), "console ring of dead domain %d", id)
		}
	}

	// Toolstack ledger: Dom0's dilation wake-rate must equal the sum
	// over booted guests.
	want := 0.0
	for _, vm := range e.vms {
		if vm.Booted {
			want += vm.Image.WakeRatePerSec
		}
	}
	if math.Abs(e.dom0WakeRate-want) > 1e-6 {
		add("toolstack", "wake-ledger", "dom0", "dilation ledger %.3f wakes/s, live guests sum to %.3f", e.dom0WakeRate, want)
	}

	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Layer != b.Layer {
			return a.Layer < b.Layer
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		return a.Subject < b.Subject
	})
	return out
}

// Environment tracking: experiments build Envs deep inside generator
// code; the -fsck gate needs to find them afterwards without threading
// a registry through every constructor. NewEnv registers into a
// package-level list while tracking is on; FsckTracked audits every
// env that is still alive once the run has quiesced.
var envTrack struct {
	mu   sync.Mutex
	on   bool
	envs []*Env
}

// SetEnvTracking switches Env registration on or off, clearing any
// previously tracked list. Leave it off (the default) outside fsck
// runs: tracking pins every environment — stores included — in memory.
func SetEnvTracking(on bool) {
	envTrack.mu.Lock()
	defer envTrack.mu.Unlock()
	envTrack.on = on
	envTrack.envs = nil
}

// trackEnv registers a new environment while tracking is on.
func trackEnv(e *Env) {
	envTrack.mu.Lock()
	defer envTrack.mu.Unlock()
	if envTrack.on {
		envTrack.envs = append(envTrack.envs, e)
	}
}

// MarkDead excludes an environment from FsckTracked — a simulated
// whole-host failure (cluster.FailHost) leaves the corpse's state
// frozen mid-flight by design.
func (e *Env) MarkDead() { e.dead = true }

// TrackedEnvs returns the live tracked environments.
func TrackedEnvs() []*Env {
	envTrack.mu.Lock()
	defer envTrack.mu.Unlock()
	out := make([]*Env, 0, len(envTrack.envs))
	for _, e := range envTrack.envs {
		if !e.dead {
			out = append(out, e)
		}
	}
	return out
}

// FsckTracked audits every live tracked environment. envs reports how
// many were checked. Call only after the run has quiesced (RunMany
// returned): Fsck on an environment mid-operation reads torn state.
func FsckTracked() (envs int, violations []Violation) {
	for _, e := range TrackedEnvs() {
		envs++
		violations = append(violations, Fsck(e)...)
	}
	return envs, violations
}
