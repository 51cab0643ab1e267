package toolstack

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"lightvm/internal/hv"
	"lightvm/internal/xenbus"
)

// The scrubber is the recovery half of the crash-consistent lifecycle
// (crash.go is the journaling half): what a restarted toolstack runs
// before accepting new work. It first replays the intent journal —
// destroy intents roll forward (finish the teardown the user asked
// for), create/clone/prepare intents roll back (reap the half-built
// domain) — then, on the store-based designs only, sweeps the whole
// registry for anything the journal did not cover.
//
// The cost asymmetry the paper predicts emerges from mechanism, not
// from tuned constants: chaos recovery is one journal ioctl plus
// per-domain teardown (the noxs module holds all truth in kernel
// memory), while xl recovery must Directory-walk /local/domain, /vm,
// /vm/names and the backend trees, paying a store round trip per node
// it touches — a walk whose cost grows with everything every toolstack
// ever leaked.

// ScrubReport summarizes one recovery pass.
type ScrubReport struct {
	Journals int // intent records replayed (rolled forward or back)
	Orphans  int // leaked domains reaped (hv + devices + memory)
	Residue  int // stale registry litter removed (store paths, watches)
	Duration time.Duration
}

// Add accumulates another pass into r (churn loops aggregate).
func (r *ScrubReport) Add(o ScrubReport) {
	r.Journals += o.Journals
	r.Orphans += o.Orphans
	r.Residue += o.Residue
	r.Duration += o.Duration
}

// Scrub runs recovery for a toolstack of the given mode: journal
// replay always, plus the whole-store orphan sweep on store-based
// modes. It charges virtual time like any other toolstack operation
// and is idempotent — a second pass finds nothing.
func (e *Env) Scrub(mode Mode) ScrubReport {
	start := e.Clock.Now()
	var r ScrubReport
	us := mode.UsesStore()
	e.RunDom0(func() {
		for _, rec := range e.journalEntries(us) {
			e.replayJournal(rec, us, &r)
		}
		if us {
			e.sweepStore(&r)
		}
	})
	r.Duration = e.Clock.Now().Sub(start)
	if e.Trace != nil {
		e.Trace.Emit("toolstack", "scrub", mode.String(),
			fmt.Sprintf("journals=%d orphans=%d residue=%d", r.Journals, r.Orphans, r.Residue), r.Duration)
	}
	return r
}

// replayJournal recovers one intent record. Both directions converge
// on reapDomain: for a destroy intent that IS the roll-forward, for
// every other op it is the roll-back of whatever had been built.
func (e *Env) replayJournal(rec journalRecord, useStore bool, r *ScrubReport) {
	if rec.Op == journalOpLease {
		// Not an intent: a durable ownership claim. Valid claims stay;
		// stale ones fence the local copy (lease.go).
		e.scrubLease(rec, useStore, r)
		return
	}
	_ = e.reapDomain(rec.Dom, useStore, rec.Key, r)
	// Clear ungated (not via journalClear): the record exists,
	// whatever the injector's current plan says.
	e.journalDel(useStore, rec.Key)
	r.Journals++
	if e.Trace != nil {
		e.Trace.Emit("toolstack", "recover", rec.Key, "op="+rec.Op+" step="+rec.Step, 0)
	}
}

// scrubKinds is the fixed walk order over device kinds.
var scrubKinds = []hv.DevKind{hv.DevVif, hv.DevVbd, hv.DevConsole}

// reapDomain reclaims everything a half-done operation may have left
// for one domain: device state (store dirs + backend teardown, or the
// noxs device page), registry entries, its console ring, and the
// domain itself with its memory, event channels and grants. name is
// the journal key; for VM keys the /vm/<name> tree is removed too. r
// may be nil (rollback callers reap without reporting); the returned
// error is the domain destroy's, for callers that must not swallow it.
func (e *Env) reapDomain(dom hv.DomID, useStore bool, name string, r *ScrubReport) error {
	var destroyErr error
	if dom != 0 {
		if useStore {
			for _, kind := range scrubKinds {
				dir := xenbus.BackendDomainDir(dom, kind)
				idxs, err := e.Store.Directory(dir)
				if err != nil {
					continue
				}
				sort.Strings(idxs)
				for _, is := range idxs {
					if idx, aerr := strconv.Atoi(is); aerr == nil {
						e.removeStoreDevice(xenbus.NewDevice(dom, kind, idx))
					}
				}
				_ = e.Store.Rm(dir)
			}
			_ = e.Store.Rm(xenbus.DomainPath(dom))
			_ = e.Store.Rm("/vm/names/" + strconv.Itoa(int(dom)))
		} else {
			e.Noxs.DestroyAll(dom)
		}
		e.Console.Detach(dom)
		if _, err := e.HV.Domain(dom); err == nil {
			destroyErr = e.HV.DestroyDomain(dom)
			if r != nil {
				r.Orphans++
			}
		}
	}
	if useStore && name != "" && !strings.HasPrefix(name, "shell:") {
		_ = e.Store.Rm("/vm/" + name)
	}
	return destroyErr
}

// rollbackDomain is the non-crash failure path's cleanup: reap
// everything the half-done operation built — device state, registry
// entries and the domain itself — exactly as the scrubber would, and
// join any teardown failure onto err instead of swallowing it, so a
// rollback that itself fails is never silent.
func (e *Env) rollbackDomain(err error, useStore bool, name string, dom hv.DomID) error {
	if derr := e.reapDomain(dom, useStore, name, nil); derr != nil {
		err = errors.Join(err, fmt.Errorf("toolstack: rollback of %q: %w", name, derr))
	}
	return err
}

// domSet is a set of domain ids: a bitset over the host's dense,
// never-reused id space (hv.Hypervisor.DomIDLimit), one allocation
// however many guests the host runs.
type domSet []uint64

// newDomSet returns an empty set sized for every id h has issued.
func newDomSet(h *hv.Hypervisor) domSet {
	return make(domSet, (int(h.DomIDLimit())+63)/64)
}

// add puts id in the set, growing it for an id past the sizing limit.
func (s *domSet) add(id hv.DomID) {
	w := int(id >> 6)
	for len(*s) <= w {
		*s = append(*s, 0)
	}
	(*s)[w] |= 1 << (id & 63)
}

// has reports whether id is in the set; ids outside it, negative ones
// included, are not.
func (s domSet) has(id hv.DomID) bool {
	w := int(id >> 6)
	return id >= 0 && w < len(s) && s[w]&(1<<(id&63)) != 0
}

// vmDomains is the set of domains backing tracked VMs.
func (e *Env) vmDomains() domSet {
	s := newDomSet(e.HV)
	for _, vm := range e.vms {
		if vm.Dom != nil {
			s.add(vm.Dom.ID)
		}
	}
	return s
}

// liveDomains is the set of domains the control plane still claims:
// Dom0, every tracked VM (vms, from vmDomains, which it extends in
// place) and every pooled shell (shells, from Pool.ShellDomIDs).
func liveDomains(vms domSet, shells []hv.DomID) domSet {
	vms.add(0)
	for _, id := range shells {
		vms.add(id)
	}
	return vms
}

// sweepStore is the xl-style full-registry scan: every Directory read
// and Rm below is a charged store operation, so its cost scales with
// the registry's size — including litter left by OTHER crashed
// operations, which is exactly the degradation Fig. 5 describes.
func (e *Env) sweepStore(r *ScrubReport) {
	live := liveDomains(e.vmDomains(), e.Pool.ShellDomIDs())
	// Orphan domain subtrees: a /local/domain/<id> with no live claim.
	if ids, err := e.Store.Directory("/local/domain"); err == nil {
		sort.Strings(ids)
		for _, s := range ids {
			id, aerr := strconv.Atoi(s)
			if aerr != nil || id == 0 || live.has(hv.DomID(id)) {
				continue
			}
			had := r.Orphans
			e.reapDomain(hv.DomID(id), true, "", r)
			if r.Orphans == had {
				r.Residue++ // dir only; the hv domain was already gone
			}
		}
	}
	// Stale name registrations (/vm/names/<id> → name, /vm/<name>).
	if ids, err := e.Store.Directory("/vm/names"); err == nil {
		sort.Strings(ids)
		for _, s := range ids {
			id, aerr := strconv.Atoi(s)
			if aerr != nil || live.has(hv.DomID(id)) {
				continue
			}
			_ = e.Store.Rm("/vm/names/" + s)
			r.Residue++
		}
	}
	if names, err := e.Store.Directory("/vm"); err == nil {
		sort.Strings(names)
		for _, n := range names {
			if n == "names" {
				continue
			}
			if _, ok := e.vms[n]; ok {
				continue
			}
			_ = e.Store.Rm("/vm/" + n)
			r.Residue++
		}
	}
	// Empty per-domain backend parents for dead domains.
	for _, kind := range scrubKinds {
		root := xenbus.BackendDir(kind)
		doms, err := e.Store.Directory(root)
		if err != nil {
			continue
		}
		sort.Strings(doms)
		for _, s := range doms {
			id, aerr := strconv.Atoi(s)
			if aerr != nil || live.has(hv.DomID(id)) {
				continue
			}
			_ = e.Store.Rm(root + "/" + s)
			r.Residue++
		}
	}
	// Orphan frontend watches: tokens of the form fe-<dom>-... whose
	// domain is gone. Listing is free (daemon-internal table); each
	// removal is a charged store op.
	for _, tok := range e.Store.WatchTokens() {
		dom, ok := frontendWatchDom(tok)
		if !ok || live.has(dom) {
			continue
		}
		e.Store.UnwatchByToken(tok)
		r.Residue++
	}
}

// frontendWatchDom parses the domain out of a frontend watch token
// ("fe-<dom>-<kind>-<idx>"); ok is false for any other token.
func frontendWatchDom(tok string) (hv.DomID, bool) {
	rest, found := strings.CutPrefix(tok, "fe-")
	if !found {
		return 0, false
	}
	ds, _, found := strings.Cut(rest, "-")
	if !found {
		return 0, false
	}
	id, err := strconv.Atoi(ds)
	if err != nil {
		return 0, false
	}
	return hv.DomID(id), true
}
