package toolstack

import (
	"errors"
	"fmt"
	"strings"

	"lightvm/internal/hv"
)

// Lease-fenced domain ownership: the split-brain half of the cluster's
// gray-failure story (internal/cluster/health.go is the detection
// half).
//
// Every cluster placement carries a monotonically increasing epoch.
// The owning Dom0 records its claim durably in the same intent journal
// the crash-consistent lifecycle uses (crash.go) — a store node under
// /tool/journal on the xl path, a kernel-memory journal entry on the
// noxs path — under the key "lease:<vm>". When the cluster fails a
// domain over (because its host was declared dead on missed
// heartbeats), it bumps the epoch; the old host's recorded claim is
// now stale. Fencing happens at the toolstack boundary: destroy and
// migrate consult CheckLease before touching the domain, and the
// scrubber validates every lease record it finds against the cluster's
// epoch table, reaping the stale copy — so a partitioned host that
// comes back cannot double-run a domain it no longer owns.
//
// The fence lives at the journal layer, not in the cluster's in-memory
// tables, for the same reason the intent journal does: the claim must
// survive the toolstack process. A restarted or returning Dom0 has no
// cluster state — the journal is the only thing it can trust, and
// replaying it (Scrub) is exactly the self-fencing walk.
//
// Everything here is inert until a LeaseChecker is attached (the
// cluster arms one per member when its health monitor is enabled):
// unarmed environments hold no leases, write no records, and charge
// zero extra virtual time, so all pre-existing figures stay
// byte-identical.

// ErrStaleLease marks an operation rejected by the ownership fence:
// the caller's lease epoch for the domain is no longer current —
// the domain was failed over while this host was unreachable.
var ErrStaleLease = errors.New("toolstack: stale placement lease (domain fenced)")

// LeaseChecker validates an ownership claim against the cluster's
// authoritative epoch table: it reports whether epoch is still the
// current epoch for name. It must not charge virtual time and must be
// callable from scrub/fsck contexts without further locking.
type LeaseChecker func(name string, epoch uint64) bool

// leasePrefix namespaces lease records in the shared intent journal.
const leasePrefix = "lease:"

// GrantLease records this Dom0's ownership of vm at epoch, durably in
// the intent journal (charged like any journal write). The cluster
// calls it after each successful placement.
func (e *Env) GrantLease(name string, epoch uint64, useStore bool) {
	if e.leases == nil {
		e.leases = make(map[string]uint64)
	}
	e.leases[name] = epoch
	var dom hv.DomID
	if vm, ok := e.vms[name]; ok && vm.Dom != nil {
		dom = vm.Dom.ID
	}
	e.journalPut(useStore, journalRecord{Key: leasePrefix + name, Op: journalOpLease, Step: "own", Dom: dom, Epoch: epoch})
}

// RevokeLease drops a lease and its journal record — a clean ownership
// handoff (destroy, or a completed outbound migration).
func (e *Env) RevokeLease(name string, useStore bool) {
	if _, ok := e.leases[name]; !ok {
		return
	}
	delete(e.leases, name)
	e.journalDel(useStore, leasePrefix+name)
}

// LeaseEpoch reports the epoch this Dom0 holds for name, if any.
func (e *Env) LeaseEpoch(name string) (uint64, bool) {
	ep, ok := e.leases[name]
	return ep, ok
}

// CheckLease is the fence: lifecycle operations on leased domains call
// it before touching anything. Unarmed environments (no LeaseChecker)
// and unleased domains pass for free; a stale claim is rejected with
// ErrStaleLease and counted.
func (e *Env) CheckLease(name string) error {
	if e.LeaseCheck == nil {
		return nil
	}
	epoch, ok := e.leases[name]
	if !ok {
		return nil
	}
	if e.LeaseCheck(name, epoch) {
		return nil
	}
	e.staleRejected++
	if e.Trace != nil {
		e.Trace.Emit("toolstack", "fence", name, fmt.Sprintf("epoch=%d", epoch), 0)
	}
	return fmt.Errorf("%w: %q epoch %d", ErrStaleLease, name, epoch)
}

// StaleRejections reports how many operations the fence has rejected
// (including scrub-time reaps of stale copies). A positive count next
// to a zero double-start count is the evidence the fence did real
// work.
func (e *Env) StaleRejections() uint64 { return e.staleRejected }

// scrubLease is the scrubber's handling of one lease record — the
// self-fencing walk a returning host runs before accepting new work. A
// record the cluster still recognizes is live ownership, not litter:
// it stays, and so does the domain. A stale record means the domain
// was failed over while this host was out: its local copy is reaped
// (domain, devices, registry state) and the claim dropped.
func (e *Env) scrubLease(rec journalRecord, useStore bool, r *ScrubReport) {
	name := strings.TrimPrefix(rec.Key, leasePrefix)
	if e.LeaseCheck == nil || e.LeaseCheck(name, rec.Epoch) {
		return
	}
	e.staleRejected++
	if vm, ok := e.vms[name]; ok {
		e.UnregisterRunning(vm)
		var dom hv.DomID
		if vm.Dom != nil {
			dom = vm.Dom.ID
		}
		_ = e.reapDomain(dom, useStore, name, r)
		e.forget(vm)
	} else {
		_ = e.reapDomain(rec.Dom, useStore, name, r)
	}
	delete(e.leases, name)
	e.journalDel(useStore, rec.Key)
	r.Journals++
	if e.Trace != nil {
		e.Trace.Emit("toolstack", "fence-scrub", name, fmt.Sprintf("epoch=%d", rec.Epoch), 0)
	}
}
