package migrate

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"lightvm/internal/faults"
	"lightvm/internal/guest"
	"lightvm/internal/sim"
	"lightvm/internal/toolstack"
	"lightvm/internal/xenstore"
)

// The lifecycle pins are a safety net for the device plane every
// lifecycle step shares (store handshake or noxs device page, backend
// teardown, failed-create epilogue). Each path runs on fresh hosts
// sharing one clock, at a fixed fault seed, and pins the virtual time
// it charges, both hosts' store counters and their fsck violation
// count. Any reordering of store ops, clock charges or fault-stream
// draws moves a pin.
//
// Two paths pin known leaks rather than a clean audit: a pool-daemon
// crash on the store path reaps each shell's devices and domain but
// leaves its /local/domain/<id> directory, and a migration whose
// target pre-create fails reaps only the target domain.

// lifecycleSeed seeds every fault plan the paths arm.
const lifecycleSeed = 7

var lifecycleModes = []toolstack.Mode{
	toolstack.ModeXL, toolstack.ModeChaosXS, toolstack.ModeChaosSplit,
	toolstack.ModeChaosNoXS, toolstack.ModeLightVM,
}

// lifecyclePath drives one path from src (and, for migrations, onto
// dst). It returns a short outcome summary that joins the pin.
type lifecyclePath struct {
	name string
	run  func(t *testing.T, clock *sim.Clock, src, dst *toolstack.Env, mode toolstack.Mode) string
}

var lifecyclePaths = []lifecyclePath{
	{name: "create-destroy", run: func(t *testing.T, _ *sim.Clock, src, _ *toolstack.Env, mode toolstack.Mode) string {
		vm, drv := createVM(t, src, mode, "g")
		if err := drv.Destroy(vm); err != nil {
			t.Fatal(err)
		}
		return ""
	}},
	{name: "create-oom", run: func(t *testing.T, _ *sim.Clock, src, _ *toolstack.Env, mode toolstack.Mode) string {
		img := guest.Daytime()
		img.MemBytes = 256 << 30 // twice the host
		_, err := src.ForMode(mode).Create("big", img)
		if err == nil {
			t.Fatal("oversized create succeeded")
		}
		return ""
	}},
	{name: "crash-scrub", run: func(t *testing.T, clock *sim.Clock, src, _ *toolstack.Env, mode toolstack.Mode) string {
		site := "chaos.create.devices"
		if mode == toolstack.ModeXL {
			site = "xl.create.devices"
		}
		src.SetFaults(faults.New(clock, lifecycleSeed, faults.Plan{
			Rate: 1, Kinds: []faults.Kind{faults.KindToolstackCrash}, Sites: []string{site},
		}))
		if _, err := src.ForMode(mode).Create("g", guest.Daytime()); !errors.Is(err, toolstack.ErrToolstackCrash) {
			t.Fatalf("create at %s: %v, want a toolstack crash", site, err)
		}
		src.SetFaults(nil)
		r := src.Scrub(mode)
		return fmt.Sprintf("journals=%d orphans=%d residue=%d", r.Journals, r.Orphans, r.Residue)
	}},
	{name: "clone", run: func(t *testing.T, _ *sim.Clock, src, _ *toolstack.Env, mode toolstack.Mode) string {
		parent, drv := createVM(t, src, mode, "parent")
		child, err := src.CloneVM(parent, "child")
		if err != nil {
			t.Fatal(err)
		}
		if err := drv.Destroy(child); err != nil {
			t.Fatal(err)
		}
		return ""
	}},
	{name: "pool-crash", run: func(t *testing.T, clock *sim.Clock, src, _ *toolstack.Env, mode toolstack.Mode) string {
		_ = src.ForMode(mode) // selects the mode's hotplug path
		img, store := guest.Daytime(), mode.UsesStore()
		src.Pool.SetTarget(2)
		src.Pool.Register(img, store)
		if err := src.Pool.Replenish(); err != nil {
			t.Fatal(err)
		}
		src.SetFaults(faults.New(clock, lifecycleSeed, faults.Plan{
			Rate: 1, Kinds: []faults.Kind{faults.KindDaemonCrash},
		}))
		if s := src.Pool.Take(img, store); s != nil {
			t.Fatal("took a shell from a crashed daemon")
		}
		return fmt.Sprintf("prepared=%d crashes=%d", src.Pool.Stats.Prepared, src.Pool.Stats.Crashes)
	}},
	{name: "save-restore", run: func(t *testing.T, _ *sim.Clock, src, _ *toolstack.Env, mode toolstack.Mode) string {
		vm, _ := createVM(t, src, mode, "g")
		cp, _, err := Save(src, vm)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := Restore(src, cp); err != nil {
			t.Fatal(err)
		}
		return ""
	}},
	{name: "migrate", run: func(t *testing.T, _ *sim.Clock, src, dst *toolstack.Env, mode toolstack.Mode) string {
		vm, _ := createVM(t, src, mode, "g")
		if _, _, err := Migrate(src, dst, vm); err != nil {
			t.Fatal(err)
		}
		return ""
	}},
	{name: "migrate-drop", run: func(t *testing.T, clock *sim.Clock, src, dst *toolstack.Env, mode toolstack.Mode) string {
		vm, _ := createVM(t, src, mode, "g")
		src.SetFaults(faults.New(clock, lifecycleSeed, faults.Plan{
			Rate: 1, Kinds: []faults.Kind{faults.KindMigrationDrop},
		}))
		if _, _, err := Migrate(src, dst, vm); !errors.Is(err, ErrMigrationAborted) {
			t.Fatalf("migrate with every stream dropped: %v, want ErrMigrationAborted", err)
		}
		return ""
	}},
	// lease-fence drives the lease journal: the grant writes a record,
	// and a scrub against a checker that rejects every epoch reaps the
	// fenced copy and removes the record.
	{name: "lease-fence", run: func(t *testing.T, _ *sim.Clock, src, _ *toolstack.Env, mode toolstack.Mode) string {
		vm, _ := createVM(t, src, mode, "g")
		src.GrantLease(vm.Name, 1, mode.UsesStore())
		src.LeaseCheck = func(string, uint64) bool { return false }
		r := src.Scrub(mode)
		return fmt.Sprintf("journals=%d orphans=%d residue=%d stale=%d",
			r.Journals, r.Orphans, r.Residue, src.StaleRejections())
	}},
	// fault-churn mixes every lifecycle step under the default fault
	// plan, so the pin also covers the order of fault-stream draws on
	// the retry and rollback paths.
	{name: "fault-churn", run: func(t *testing.T, clock *sim.Clock, src, dst *toolstack.Env, mode toolstack.Mode) string {
		inj := faults.New(clock, lifecycleSeed, faults.Plan{Rate: 0.3})
		src.SetFaults(inj)
		dst.SetFaults(inj)
		drv := src.ForMode(mode)
		var outcome []string
		note := func(op string, err error) {
			if err != nil {
				outcome = append(outcome, op)
			}
		}
		for i := 0; i < 6; i++ {
			name := fmt.Sprintf("c%d", i)
			vm, err := drv.Create(name, guest.Daytime())
			note("create", err)
			if err != nil {
				continue
			}
			switch i % 3 {
			case 0:
				_, _, err = Migrate(src, dst, vm)
				note("migrate", err)
			case 1:
				var child *toolstack.VM
				child, err = src.CloneVM(vm, name+"-clone")
				note("clone", err)
				if err == nil {
					note("destroy", drv.Destroy(child))
				}
			case 2:
				var cp *Checkpoint
				cp, _, err = Save(src, vm)
				note("save", err)
				if err == nil {
					_, _, err = Restore(src, cp)
					note("restore", err)
				}
			}
			_ = src.Pool.Replenish()
		}
		return fmt.Sprintf("failed=[%s] injected=%d", strings.Join(outcome, " "), inj.TotalInjected())
	}},
}

// storeDelta renders how far a path moved a store's counters from base.
func storeDelta(e *toolstack.Env, base xenstore.Counters) string {
	c := e.Store.Count
	return fmt.Sprintf("ops=%d txn=%d/%d/%d fires=%d nodes=%d",
		c.Ops-base.Ops, c.TxnStarts-base.TxnStarts, c.TxnCommits-base.TxnCommits,
		c.TxnConflicts-base.TxnConflicts, c.WatchFires-base.WatchFires, c.NodesTouched-base.NodesTouched)
}

func TestLifecyclePins(t *testing.T) {
	for _, mode := range lifecycleModes {
		for _, p := range lifecyclePaths {
			key := mode.String() + "/" + p.name
			t.Run(key, func(t *testing.T) {
				clock := sim.NewClock()
				src, dst := newEnv(clock), newEnv(clock)
				srcBase, dstBase := src.Store.Count, dst.Store.Count
				start := clock.Now()
				outcome := p.run(t, clock, src, dst, mode)
				elapsed := clock.Now().Sub(start)
				violations := append(toolstack.Fsck(src), toolstack.Fsck(dst)...)
				got := fmt.Sprintf("%v src{%s} dst{%s} fsck=%d", elapsed,
					storeDelta(src, srcBase), storeDelta(dst, dstBase), len(violations))
				if outcome != "" {
					got += " " + outcome
				}
				if want := lifecyclePins[key]; got != want {
					t.Errorf("pin moved\n got: %s\nwant: %s\nfsck: %v", got, want, violations)
				}
			})
		}
	}
}

// lifecyclePins maps "<mode>/<path>" to the pinned outcome.
var lifecyclePins = map[string]string{
	"xl/create-destroy":               "97.95431ms src{ops=293 txn=3/3/0 fires=13 nodes=1645} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0",
	"xl/create-oom":                   "10.2748ms src{ops=6 txn=0/0/0 fires=0 nodes=23} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0",
	"xl/crash-scrub":                  "90.871898ms src{ops=298 txn=3/3/0 fires=12 nodes=1639} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0 journals=1 orphans=1 residue=0",
	"xl/clone":                        "135.478667ms src{ops=343 txn=5/5/0 fires=24 nodes=2003} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0",
	"xl/pool-crash":                   "126.314796ms src{ops=94 txn=4/4/0 fires=22 nodes=668} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=2 prepared=2 crashes=1",
	"xl/save-restore":                 "675.862701ms src{ops=340 txn=5/5/0 fires=24 nodes=1968} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0",
	"xl/migrate":                      "153.564105ms src{ops=291 txn=3/3/0 fires=13 nodes=1628} dst{ops=48 txn=2/2/0 fires=11 nodes=333} fsck=0",
	"xl/migrate-drop":                 "152.638657ms src{ops=287 txn=3/3/0 fires=11 nodes=1561} dst{ops=49 txn=2/2/0 fires=12 nodes=353} fsck=0",
	"xl/lease-fence":                  "96.11141ms src{ops=307 txn=3/3/0 fires=14 nodes=1726} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0 journals=1 orphans=1 residue=0 stale=1",
	"xl/fault-churn":                  "5.600531329s src{ops=2289 txn=38/26/12 fires=126 nodes=13613} dst{ops=167 txn=4/4/0 fires=25 nodes=1343} fsck=0 failed=[migrate] injected=740",
	"chaos [XS]/create-destroy":       "14.24951ms src{ops=57 txn=2/2/0 fires=13 nodes=427} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0",
	"chaos [XS]/create-oom":           "2.9548ms src{ops=6 txn=0/0/0 fires=0 nodes=23} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0",
	"chaos [XS]/crash-scrub":          "9.900798ms src{ops=65 txn=2/2/0 fires=12 nodes=428} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0 journals=1 orphans=1 residue=0",
	"chaos [XS]/clone":                "24.226067ms src{ops=107 txn=4/4/0 fires=24 nodes=797} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0",
	"chaos [XS]/pool-crash":           "16.114796ms src{ops=94 txn=4/4/0 fires=22 nodes=668} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=2 prepared=2 crashes=1",
	"chaos [XS]/save-restore":         "80.322301ms src{ops=106 txn=4/4/0 fires=24 nodes=769} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0",
	"chaos [XS]/migrate":              "72.523705ms src{ops=57 txn=2/2/0 fires=13 nodes=429} dst{ops=48 txn=2/2/0 fires=11 nodes=333} fsck=0",
	"chaos [XS]/migrate-drop":         "44.056057ms src{ops=53 txn=2/2/0 fires=11 nodes=375} dst{ops=49 txn=2/2/0 fires=12 nodes=353} fsck=0",
	"chaos [XS]/lease-fence":          "15.05841ms src{ops=73 txn=2/2/0 fires=14 nodes=506} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0 journals=1 orphans=1 residue=0 stale=1",
	"chaos [XS]/fault-churn":          "1.749249569s src{ops=750 txn=24/20/4 fires=126 nodes=5973} dst{ops=174 txn=5/4/1 fires=25 nodes=1366} fsck=0 failed=[migrate] injected=290",
	"chaos [XS+split]/create-destroy": "15.02411ms src{ops=63 txn=3/3/0 fires=13 nodes=453} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0",
	"chaos [XS+split]/create-oom":     "2.8777ms src{ops=5 txn=0/0/0 fires=0 nodes=22} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0",
	"chaos [XS+split]/crash-scrub":    "10.836798ms src{ops=73 txn=3/3/0 fires=12 nodes=468} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0 journals=1 orphans=1 residue=0",
	"chaos [XS+split]/clone":          "25.000667ms src{ops=113 txn=5/5/0 fires=24 nodes=823} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0",
	"chaos [XS+split]/pool-crash":     "16.114796ms src{ops=94 txn=4/4/0 fires=22 nodes=668} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=2 prepared=2 crashes=1",
	"chaos [XS+split]/save-restore":   "81.096901ms src{ops=112 txn=5/5/0 fires=24 nodes=795} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0",
	"chaos [XS+split]/migrate":        "73.298305ms src{ops=63 txn=3/3/0 fires=13 nodes=455} dst{ops=48 txn=2/2/0 fires=11 nodes=333} fsck=0",
	"chaos [XS+split]/migrate-drop":   "44.830057ms src{ops=59 txn=3/3/0 fires=11 nodes=400} dst{ops=49 txn=2/2/0 fires=12 nodes=353} fsck=0",
	"chaos [XS+split]/lease-fence":    "15.83301ms src{ops=79 txn=3/3/0 fires=14 nodes=532} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0 journals=1 orphans=1 residue=0 stale=1",
	"chaos [XS+split]/fault-churn":    "3.878679883s src{ops=2132 txn=90/63/27 fires=333 nodes=15001} dst{ops=95 txn=4/4/0 fires=23 nodes=687} fsck=10 failed=[migrate] injected=700",
	"chaos [NoXS]/create-destroy":     "44.76951ms src{ops=0 txn=0/0/0 fires=0 nodes=0} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0",
	"chaos [NoXS]/create-oom":         "2.482ms src{ops=0 txn=0/0/0 fires=0 nodes=0} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0",
	"chaos [NoXS]/crash-scrub":        "40.336198ms src{ops=0 txn=0/0/0 fires=0 nodes=0} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0 journals=1 orphans=1 residue=0",
	"chaos [NoXS]/clone":              "49.596267ms src{ops=0 txn=0/0/0 fires=0 nodes=0} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0",
	"chaos [NoXS]/pool-crash":         "79.880396ms src{ops=0 txn=0/0/0 fires=0 nodes=0} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0 prepared=2 crashes=1",
	"chaos [NoXS]/save-restore":       "89.268301ms src{ops=0 txn=0/0/0 fires=0 nodes=0} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0",
	"chaos [NoXS]/migrate":            "81.700405ms src{ops=0 txn=0/0/0 fires=0 nodes=0} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0",
	"chaos [NoXS]/migrate-drop":       "90.860836ms src{ops=0 txn=0/0/0 fires=0 nodes=0} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0",
	"chaos [NoXS]/lease-fence":        "44.28351ms src{ops=0 txn=0/0/0 fires=0 nodes=0} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0 journals=1 orphans=1 residue=0 stale=1",
	"chaos [NoXS]/fault-churn":        "445.181946ms src{ops=0 txn=0/0/0 fires=0 nodes=0} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0 failed=[] injected=1",
	"LightVM/create-destroy":          "45.07351ms src{ops=0 txn=0/0/0 fires=0 nodes=0} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0",
	"LightVM/create-oom":              "2.482ms src{ops=0 txn=0/0/0 fires=0 nodes=0} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0",
	"LightVM/crash-scrub":             "40.650198ms src{ops=0 txn=0/0/0 fires=0 nodes=0} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0 journals=1 orphans=1 residue=0",
	"LightVM/clone":                   "49.900267ms src{ops=0 txn=0/0/0 fires=0 nodes=0} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0",
	"LightVM/pool-crash":              "79.880396ms src{ops=0 txn=0/0/0 fires=0 nodes=0} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0 prepared=2 crashes=1",
	"LightVM/save-restore":            "89.572301ms src{ops=0 txn=0/0/0 fires=0 nodes=0} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0",
	"LightVM/migrate":                 "82.004405ms src{ops=0 txn=0/0/0 fires=0 nodes=0} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0",
	"LightVM/migrate-drop":            "91.164836ms src{ops=0 txn=0/0/0 fires=0 nodes=0} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0",
	"LightVM/lease-fence":             "44.58751ms src{ops=0 txn=0/0/0 fires=0 nodes=0} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0 journals=1 orphans=1 residue=0 stale=1",
	"LightVM/fault-churn":             "1.014856922s src{ops=0 txn=0/0/0 fires=0 nodes=0} dst{ops=0 txn=0/0/0 fires=0 nodes=0} fsck=0 failed=[] injected=3",
}
