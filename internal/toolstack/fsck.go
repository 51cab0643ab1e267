package toolstack

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"

	"lightvm/internal/hv"
	"lightvm/internal/mm"
	"lightvm/internal/xenbus"
	"lightvm/internal/xenstore"
)

// Fsck is the cross-layer invariant checker: it cross-references the
// store, the hypervisor, the memory allocator, the noxs module, the
// shell pool and the console daemon against the toolstack's own tables
// and reports everything that no live domain can account for. It is entirely clock-free —
// store reads and introspection only, no charged operations — so
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
//
// Its allocations do not grow with the guest count: the live set is a
// bitset (domSet), the store is walked through live-tree entries
// rather than per-directory listings and paths, and the hypervisor, allocator
// and console tables are iterated in place. A string is built only for
// a violation. The tables are walked in whatever order they keep, so
// the result is sorted on every field: the list is the same whatever
// the iteration order.
func Fsck(e *Env) []Violation {
	var out []Violation
	add := func(layer, kind, subject, format string, args ...any) {
		out = append(out, Violation{Layer: layer, Kind: kind, Subject: subject, Detail: fmt.Sprintf(format, args...)})
	}

	// Pool: every shell must be backed by a real domain, and no shell
	// may be shared with a tracked VM (a taken shell leaves the pool).
	// Shell ids arrive sorted, so a duplicate is adjacent; overlaps are
	// looked up in the tracked VMs' set before the shells join it.
	vms := e.vmDomains()
	shells := e.Pool.ShellDomIDs()
	for i, id := range shells {
		if _, err := e.HV.Domain(id); err != nil {
			add("pool", "missing-shell-domain", strconv.Itoa(int(id)), "pooled shell's domain does not exist")
		}
		if i > 0 && shells[i-1] == id {
			add("pool", "duplicate-shell", strconv.Itoa(int(id)), "domain pooled twice")
		}
		if vms.has(id) {
			add("pool", "shell-vm-overlap", strconv.Itoa(int(id)), "pooled shell is also VM %q", e.vmOn(id))
		}
	}
	live := liveDomains(vms, shells)

	// Store-internal consistency (cached child counts).
	for _, p := range e.Store.CheckConsistency() {
		add("xenstore", "store-internal", "", "%s", p)
	}

	// Orphan registry subtrees and dirty journals.
	// The store is read in place, not snapshotted, so the nodes read
	// stay recyclable; nothing below mutates it while entries are held.
	local := e.Store.Lookup("/local/domain")
	local.Each(func(s string, _ xenstore.Entry) {
		if id, err := strconv.Atoi(s); err == nil && id != 0 && !live.has(hv.DomID(id)) {
			add("xenstore", "orphan-domain-dir", "/local/domain/"+s, "registry subtree for dead domain %d", id)
		}
	})
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
	e.Store.Lookup(journalRoot).Each(func(k string, rec xenstore.Entry) {
		if strings.HasPrefix(k, leasePrefix) {
			checkLease("xenstore", parseJournalRecord(k, rec.Value()))
			return
		}
		add("xenstore", "journal-dirty", journalRoot+"/"+k, "unrecovered intent: %s", rec.Value())
	})
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
		kname := xenbus.KindName(kind)
		e.Store.Lookup(root).Each(func(ds string, devs xenstore.Entry) {
			id, err := strconv.Atoi(ds)
			if err != nil {
				return
			}
			dom := hv.DomID(id)
			// The frontend dir is /local/domain/<id>/device/<kind>/<idx>:
			// reached by entry when the names are in the form that path
			// prints, by path otherwise.
			canon := isDecimal(ds, id)
			var fe xenstore.Entry
			if canon {
				fe = local.Child(ds).Child("device").Child(kname)
			}
			devs.Each(func(is string, _ xenstore.Entry) {
				idx, err := strconv.Atoi(is)
				if err != nil {
					return
				}
				if !live.has(dom) {
					add("xenstore", "orphan-backend", root+"/"+ds+"/"+is, "backend for dead domain %d", id)
					return
				}
				var ok bool
				if canon && isDecimal(is, idx) {
					ok = fe.Child(is).Exists()
				} else {
					ok = e.Store.Lookup(xenbus.FrontendPath(dom, kind, idx)).Exists()
				}
				if !ok {
					add("xenstore", "backend-without-frontend", root+"/"+ds+"/"+is, "no frontend dir for dom %d %s[%d]", id, kname, idx)
				}
			})
		})
	}

	// Orphan frontend watches.
	for _, tok := range e.Store.WatchTokens() {
		if dom, ok := frontendWatchDom(tok); ok && !live.has(dom) {
			add("xenstore", "orphan-watch", tok, "frontend watch of dead domain %d", dom)
		}
	}

	// Hypervisor: domains, event channels and grants must belong to
	// live domains on both endpoints.
	e.HV.EachDomain(func(id hv.DomID) {
		if !live.has(id) {
			add("hv", "orphan-domain", strconv.Itoa(int(id)), "hypervisor domain with no toolstack claim")
		}
	})
	deadEnd := func(ep hv.Endpoint) bool {
		return (ep.Owner != 0 && !live.has(ep.Owner)) || (ep.Peer != 0 && !live.has(ep.Peer))
	}
	e.HV.EachPort(func(ep hv.Endpoint) {
		if deadEnd(ep) {
			add("hv", "orphan-port", fmt.Sprintf("%d->%d", ep.Owner, ep.Peer), "event channel endpoint is dead")
		}
	})
	e.HV.EachGrant(func(ep hv.Endpoint) {
		if deadEnd(ep) {
			add("hv", "orphan-grant", fmt.Sprintf("%d->%d", ep.Owner, ep.Peer), "grant endpoint is dead")
		}
	})

	// Memory: every charged owner in the domain-ID range must be a live
	// domain. Owners at nonDomainOwnerBase and above belong to other
	// tenants of the allocator (the container engine allocates from
	// 1<<20, the process runner from 1<<24, dedup share pools from
	// 1<<28) and are outside the toolstack's jurisdiction.
	e.HV.Mem.EachOwner(func(o mm.Owner, bytes uint64) {
		if o != 0 && o < nonDomainOwnerBase && !live.has(hv.DomID(o)) {
			add("mm", "orphan-memory", strconv.Itoa(int(o)), "%d bytes owned by dead domain", bytes)
		}
	})

	// Console: a guest's ring is attached when it boots and detached
	// with its load, so every ring must belong to a live domain.
	e.Console.EachDomain(func(id hv.DomID) {
		if !live.has(id) {
			add("console", "orphan-ring", strconv.Itoa(int(id)), "console ring of dead domain %d", id)
		}
	})

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

	slices.SortFunc(out, func(a, b Violation) int {
		return cmp.Or(
			strings.Compare(a.Layer, b.Layer),
			strings.Compare(a.Kind, b.Kind),
			strings.Compare(a.Subject, b.Subject),
			strings.Compare(a.Detail, b.Detail),
		)
	})
	return out
}

// isDecimal reports whether s is n printed in decimal, the form the
// store paths built by xenbus use.
func isDecimal(s string, n int) bool {
	var buf [20]byte
	return string(strconv.AppendInt(buf[:0], int64(n), 10)) == s
}

// vmOn names the tracked VM running on domain id (the least name, if
// several claim it).
func (e *Env) vmOn(id hv.DomID) string {
	name, found := "", false
	for _, vm := range e.vms {
		if vm.Dom != nil && vm.Dom.ID == id && (!found || vm.Name < name) {
			name, found = vm.Name, true
		}
	}
	return name
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
