package toolstack

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"lightvm/internal/faults"
	"lightvm/internal/hv"
)

// Crash-consistent lifecycle support: labeled crash points, and the
// per-domain intent journal a restarted toolstack recovers from.
//
// A toolstack is a user-space process; it can die between any two
// steps of a multi-step lifecycle operation, stranding whatever state
// — store nodes, device-page entries, hypervisor domains, pool shells
// — it had built so far. faults.KindToolstackCrash models exactly
// that: when it fires at a labeled crash point the operation aborts on
// the spot, runs NO rollback (the process is gone), and leaves the
// partial state for recovery (scrub.go) to find.
//
// The intent journal records, before each step, what the toolstack is
// about to do. It lives where each design keeps its truth:
//
//   - xl / chaos[XS]: a store node /tool/journal/<key> — surviving the
//     toolstack because the store daemon is a separate process;
//   - chaos[noxs]: the noxs module's journal table — surviving because
//     it is Dom0 kernel memory (noxs.Module.JournalSet).
//
// Crash points and lifecycle journal records are gated on the crash
// kind being planned (Env.crashEnabled): fault-free runs and the
// pre-existing rate sweeps write no journal, consult no decision
// stream, and charge zero extra virtual time, so their figures stay
// byte-identical. journalPut and journalDel, the journal's one
// store-or-noxs switch, are ungated: leases (lease.go) and recovery
// (scrub.go) write and remove records whatever the plan.

// ErrToolstackCrash marks an operation aborted by an injected
// toolstack crash. Unlike every other failure the toolstack does NOT
// roll back — match with errors.Is and run recovery (RecoverJournal
// or Scrub) before reusing the environment.
var ErrToolstackCrash = errors.New("toolstack: toolstack crashed at injected crash point")

// Journal ops (what the record's step belongs to). Destroy intents
// roll forward on recovery — the user asked for the domain to go, and
// real xl finishes a half-done teardown; every other op rolls back —
// real xl destroys a domain whose creation failed halfway.
const (
	journalOpCreate  = "create"
	journalOpDestroy = "destroy"
	journalOpClone   = "clone"
	journalOpPrepare = "prepare"
	// journalOpLease is not a lifecycle intent but a durable ownership
	// claim (lease.go): it is neither rolled forward nor back — the
	// scrubber validates it against the cluster's epoch table instead.
	journalOpLease = "lease"
)

// journalRoot is the store directory xl-style journals live under.
const journalRoot = "/tool/journal"

// journalRecord is one parsed intent-journal entry.
type journalRecord struct {
	Key   string // VM name, "shell:<domid>" for pool prepares, "lease:<vm>" for leases
	Op    string // journalOp*
	Step  string // the step that was about to run when the record was current
	Dom   hv.DomID
	Epoch uint64 // lease records only: the placement epoch claimed
}

// encode renders the record's store/module value.
func (r journalRecord) encode() string {
	if r.Epoch != 0 {
		return fmt.Sprintf("op=%s step=%s dom=%d epoch=%d", r.Op, r.Step, r.Dom, r.Epoch)
	}
	return fmt.Sprintf("op=%s step=%s dom=%d", r.Op, r.Step, r.Dom)
}

// parseJournalRecord decodes a journal value; malformed fields are
// left zero (the scrubber treats an unparsable record as roll-back
// with no known domain, reclaiming by sweep instead).
func parseJournalRecord(key, value string) journalRecord {
	r := journalRecord{Key: key}
	for _, f := range strings.Fields(value) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		switch k {
		case "op":
			r.Op = v
		case "step":
			r.Step = v
		case "dom":
			if id, err := strconv.Atoi(v); err == nil {
				r.Dom = hv.DomID(id)
			}
		case "epoch":
			if ep, err := strconv.ParseUint(v, 10, 64); err == nil {
				r.Epoch = ep
			}
		}
	}
	return r
}

// crashEnabled reports whether toolstack crashes are planned at all —
// the single gate for every journal write and crash-point check.
func (e *Env) crashEnabled() bool {
	return e.Faults.Enabled(faults.KindToolstackCrash)
}

// crashPoint consults the fault plane at a labeled site. It returns
// nil (and consumes nothing) when crashes are not planned; on a fire
// it returns ErrToolstackCrash wrapped with the site label, and the
// caller must abort immediately without rolling back.
func (e *Env) crashPoint(site string) error {
	if !e.crashEnabled() {
		return nil
	}
	if !e.Faults.FireSite(faults.KindToolstackCrash, site) {
		return nil
	}
	e.Trace.Emit("toolstack", "crash", site, "", 0)
	return fmt.Errorf("%w: %s", ErrToolstackCrash, site)
}

// journalSet records the step about to run for key, when crashes are
// planned.
func (e *Env) journalSet(useStore bool, key, op, step string, dom hv.DomID) {
	if e.crashEnabled() {
		e.journalPut(useStore, journalRecord{Key: key, Op: op, Step: step, Dom: dom})
	}
}

// journalClear removes key's record once the operation has fully
// completed (or been rolled back in-line by a surviving toolstack),
// when crashes are planned.
func (e *Env) journalClear(useStore bool, key string) {
	if e.crashEnabled() {
		e.journalDel(useStore, key)
	}
}

// journalPut writes rec under its key, whatever the crash plan:
// useStore selects the xl/store journal versus the noxs module
// journal, and the write is charged like any other store op / ioctl.
func (e *Env) journalPut(useStore bool, rec journalRecord) {
	if useStore {
		e.Store.WriteAt(journalRoot, rec.Key, rec.encode())
	} else {
		e.Noxs.JournalSet(rec.Key, rec.encode())
	}
}

// journalDel removes key's record, whatever the crash plan, from the
// journal useStore selects.
func (e *Env) journalDel(useStore bool, key string) {
	if useStore {
		_ = e.Store.Rm(journalRoot + "/" + key)
	} else {
		e.Noxs.JournalClear(key)
	}
}

// journalEntries reads the current journal for one device path,
// charging the read like the recovering toolstack would (a directory
// walk on the store side, one ioctl on the noxs side).
func (e *Env) journalEntries(useStore bool) []journalRecord {
	var out []journalRecord
	if useStore {
		keys, err := e.Store.Directory(journalRoot)
		if err != nil {
			return nil
		}
		for _, k := range keys {
			v, err := e.Store.ReadAt(journalRoot, k)
			if err != nil {
				continue
			}
			out = append(out, parseJournalRecord(k, v))
		}
		return out
	}
	for _, ent := range e.Noxs.JournalScan() {
		out = append(out, parseJournalRecord(ent.Key, ent.Record))
	}
	return out
}
