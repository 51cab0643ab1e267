package toolstack

import (
	"reflect"
	"strconv"
	"testing"

	"lightvm/internal/guest"
	"lightvm/internal/hv"
	"lightvm/internal/mm"
	"lightvm/internal/xenbus"
)

// fsckHost is the small host every seeded-leak case starts from: one
// booted xl guest (store device path, backend and frontend dirs,
// frontend watch, console ring) and a stocked noxs shell pool. It
// audits clean before the seed.
func fsckHost(t *testing.T) (*Env, *VM) {
	t.Helper()
	e := newEnv()
	vm, err := e.ForMode(ModeXL).Create("g1", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	e.Pool.Register(guest.Daytime(), false)
	if err := e.Pool.Replenish(); err != nil {
		t.Fatal(err)
	}
	if v := Fsck(e); len(v) > 0 {
		t.Fatalf("unseeded host: %v", v)
	}
	return e, vm
}

// firstShell is the pool's lowest-id shell.
func firstShell(t *testing.T, e *Env) *Shell {
	t.Helper()
	for _, ent := range e.Pool.order {
		if len(ent.shells) > 0 {
			return ent.shells[0]
		}
	}
	t.Fatal("pool holds no shell")
	return nil
}

// TestFsckSeededViolations seeds exactly one leak per row and requires
// Fsck's full violation list. Every kind Fsck reports has a row except
// xenstore/store-internal: it flags a node whose cached child count
// disagrees with its trie, and that count is private to the xenstore
// package, where every writer keeps it in step — only xenstore's own
// tests can corrupt it (TestCheckConsistencyDetectsCorruption).
func TestFsckSeededViolations(t *testing.T) {
	const ghost = 999 // a domain id this host never issued
	vif := xenbus.KindName(hv.DevVif)
	cases := []struct {
		name string
		seed func(e *Env, vm *VM) []Violation
	}{
		{"orphan-domain-dir", func(e *Env, _ *VM) []Violation {
			e.Store.Write("/local/domain/999/name", "ghost")
			return []Violation{{"xenstore", "orphan-domain-dir", "/local/domain/999", "registry subtree for dead domain 999"}}
		}},
		{"orphan-backend", func(e *Env, _ *VM) []Violation {
			be := xenbus.BackendDir(hv.DevVif) + "/999/0"
			e.Store.Write(be+"/state", "4")
			return []Violation{{"xenstore", "orphan-backend", be, "backend for dead domain 999"}}
		}},
		{"backend-without-frontend", func(e *Env, vm *VM) []Violation {
			if err := e.Store.Rm(xenbus.FrontendPath(vm.Dom.ID, hv.DevVif, 0)); err != nil {
				t.Fatal(err)
			}
			id := strconv.Itoa(int(vm.Dom.ID))
			be := xenbus.BackendDir(hv.DevVif) + "/" + id + "/0"
			return []Violation{{"xenstore", "backend-without-frontend", be, "no frontend dir for dom " + id + " " + vif + "[0]"}}
		}},
		{"orphan-watch", func(e *Env, _ *VM) []Violation {
			tok := xenbus.FrontendWatchToken(ghost, hv.DevVif, 0)
			e.Store.Watch(xenbus.BackendPath(ghost, hv.DevVif, 0), tok, func(string, string) {})
			return []Violation{{"xenstore", "orphan-watch", tok, "frontend watch of dead domain 999"}}
		}},
		{"journal-dirty/store", func(e *Env, _ *VM) []Violation {
			rec := journalRecord{Key: "half", Op: journalOpCreate, Step: "devices", Dom: ghost}.encode()
			e.Store.Write(journalRoot+"/half", rec)
			return []Violation{{"xenstore", "journal-dirty", journalRoot + "/half", "unrecovered intent: " + rec}}
		}},
		{"journal-dirty/noxs", func(e *Env, _ *VM) []Violation {
			rec := journalRecord{Key: "half", Op: journalOpDestroy, Step: "devices", Dom: ghost}.encode()
			e.Noxs.JournalSet("half", rec)
			return []Violation{{"noxs", "journal-dirty", "half", "unrecovered intent: " + rec}}
		}},
		{"lease-without-vm", func(e *Env, _ *VM) []Violation {
			key := leasePrefix + "gone"
			e.Store.Write(journalRoot+"/"+key, journalRecord{Key: key, Op: journalOpLease, Step: "own", Epoch: 3}.encode())
			return []Violation{{"xenstore", "lease-without-vm", key, "ownership claim with no tracked domain (epoch 3)"}}
		}},
		{"lease-epoch-skew", func(e *Env, vm *VM) []Violation {
			key := leasePrefix + vm.Name
			e.Noxs.JournalSet(key, journalRecord{Key: key, Op: journalOpLease, Step: "own", Dom: vm.Dom.ID, Epoch: 5}.encode())
			return []Violation{{"noxs", "lease-epoch-skew", key, "journal claims epoch 5, in-memory table holds 0"}}
		}},
		{"stale-lease", func(e *Env, vm *VM) []Violation {
			e.GrantLease(vm.Name, 2, true)
			e.LeaseCheck = func(string, uint64) bool { return false }
			key := leasePrefix + vm.Name
			return []Violation{{"xenstore", "stale-lease", key, "epoch 2 no longer current — the fence should have scrubbed this copy"}}
		}},
		{"orphan-domain", func(e *Env, _ *VM) []Violation {
			d, err := e.HV.CreateDomain(hv.Config{MaxMem: 1 << 20})
			if err != nil {
				t.Fatal(err)
			}
			return []Violation{{"hv", "orphan-domain", strconv.Itoa(int(d.ID)), "hypervisor domain with no toolstack claim"}}
		}},
		{"orphan-port", func(e *Env, _ *VM) []Violation {
			if _, err := e.HV.AllocUnboundPort(0, ghost); err != nil {
				t.Fatal(err)
			}
			return []Violation{{"hv", "orphan-port", "0->999", "event channel endpoint is dead"}}
		}},
		{"orphan-grant", func(e *Env, _ *VM) []Violation {
			if _, err := e.HV.GrantAccess(0, ghost, 7); err != nil {
				t.Fatal(err)
			}
			return []Violation{{"hv", "orphan-grant", "0->999", "grant endpoint is dead"}}
		}},
		{"orphan-memory", func(e *Env, _ *VM) []Violation {
			if _, err := e.HV.Mem.AllocPages(2, mm.Owner(ghost)); err != nil {
				t.Fatal(err)
			}
			return []Violation{{"mm", "orphan-memory", "999", strconv.Itoa(2*mm.PageSize) + " bytes owned by dead domain"}}
		}},
		{"orphan-ring", func(e *Env, _ *VM) []Violation {
			e.Console.Attach(ghost)
			return []Violation{{"console", "orphan-ring", "999", "console ring of dead domain 999"}}
		}},
		{"missing-shell-domain", func(e *Env, _ *VM) []Violation {
			sh := firstShell(t, e)
			if err := e.HV.DestroyDomain(sh.Dom.ID); err != nil {
				t.Fatal(err)
			}
			return []Violation{{"pool", "missing-shell-domain", strconv.Itoa(int(sh.Dom.ID)), "pooled shell's domain does not exist"}}
		}},
		{"duplicate-shell", func(e *Env, _ *VM) []Violation {
			sh := firstShell(t, e)
			for _, ent := range e.Pool.order {
				if len(ent.shells) > 0 && ent.shells[0] == sh {
					ent.shells = append(ent.shells, sh)
				}
			}
			return []Violation{{"pool", "duplicate-shell", strconv.Itoa(int(sh.Dom.ID)), "domain pooled twice"}}
		}},
		{"shell-vm-overlap", func(e *Env, _ *VM) []Violation {
			sh := firstShell(t, e)
			e.vms["twin"] = &VM{Name: "twin", Dom: sh.Dom, Image: guest.Daytime(), Mode: ModeLightVM}
			return []Violation{{"pool", "shell-vm-overlap", strconv.Itoa(int(sh.Dom.ID)), `pooled shell is also VM "twin"`}}
		}},
		{"wake-ledger", func(e *Env, _ *VM) []Violation {
			e.dom0WakeRate += 0.5
			return []Violation{{"toolstack", "wake-ledger", "dom0", "dilation ledger 0.500 wakes/s, live guests sum to 0.000"}}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			e, vm := fsckHost(t)
			want := c.seed(e, vm)
			if got := Fsck(e); !reflect.DeepEqual(got, want) {
				t.Fatalf("fsck = %v\nwant   %v", got, want)
			}
		})
	}
}

// fsckGuests returns a host running n daytime guests created in mode,
// audited clean.
func fsckGuests(tb testing.TB, mode Mode, n int) *Env {
	tb.Helper()
	e := newEnv()
	drv := e.ForMode(mode)
	if mode.UsesSplit() {
		e.Pool.Register(guest.Daytime(), mode.UsesStore())
		if err := e.Pool.Replenish(); err != nil {
			tb.Fatal(err)
		}
	}
	for i := range n {
		if _, err := drv.Create("g"+strconv.Itoa(i), guest.Daytime()); err != nil {
			tb.Fatal(err)
		}
	}
	if v := Fsck(e); len(v) > 0 {
		tb.Fatalf("%v host with %d guests: %v", mode, n, v)
	}
	return e
}

// TestFsckAllocs audits clean hosts at 100 and at 1,000 live guests:
// the audit's allocation count must not grow with the guest count and
// must stay within a small budget. Both modes measure 5: the live set,
// the watch-token listing and the three backend-root paths.
func TestFsckAllocs(t *testing.T) {
	const budget = 5
	for _, mode := range []Mode{ModeLightVM, ModeXL} {
		var allocs [2]float64
		for i, n := range []int{100, 1000} {
			e := fsckGuests(t, mode, n)
			allocs[i] = testing.AllocsPerRun(10, func() { _ = Fsck(e) })
		}
		t.Logf("%v: %.0f allocations at 100 guests, %.0f at 1,000", mode, allocs[0], allocs[1])
		if allocs[0] != allocs[1] {
			t.Errorf("%v: fsck allocates %.0f objects at 100 guests but %.0f at 1,000", mode, allocs[0], allocs[1])
		}
		if allocs[1] > budget {
			t.Errorf("%v: fsck allocates %.0f objects, budget %d", mode, allocs[1], budget)
		}
	}
}

// TestFsckKeepsStoreRecycling: on a 200-guest xl host, a create and
// destroy cycle that ends with an audit allocates no more than the
// cycle and the audit do apart. Fsck reads the live store without a
// snapshot, so the nodes alive at an audit stay recyclable afterwards;
// a snapshot would leave every later write of them to allocate afresh.
func TestFsckKeepsStoreRecycling(t *testing.T) {
	const runs = 300
	e := fsckGuests(t, ModeXL, 200)
	drv := e.ForMode(ModeXL)
	img := guest.Daytime()
	i := 0
	cycle := func() {
		vm, err := drv.Create("c"+strconv.Itoa(i), img)
		i++
		if err != nil {
			t.Fatal(err)
		}
		if err := drv.Destroy(vm); err != nil {
			t.Fatal(err)
		}
	}
	plain := testing.AllocsPerRun(runs, cycle)
	audit := testing.AllocsPerRun(runs, func() { _ = Fsck(e) })
	audited := testing.AllocsPerRun(runs, func() {
		cycle()
		_ = Fsck(e)
	})
	t.Logf("cycle %.0f, audit %.0f, cycle ending in an audit %.0f allocations", plain, audit, audited)
	if audited > plain+audit {
		t.Fatalf("a cycle ending in an audit allocates %.0f objects, want <= %.0f (cycle) + %.0f (audit)", audited, plain, audit)
	}
	if v := Fsck(e); len(v) > 0 {
		t.Fatal(v)
	}
}

// BenchmarkFsck audits a clean LightVM host running 1,000 guests.
func BenchmarkFsck(b *testing.B) {
	e := fsckGuests(b, ModeLightVM, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if v := Fsck(e); len(v) > 0 {
			b.Fatal(v)
		}
	}
}

// TestFsckBackendNamesNotDecimal: a backend directory whose names
// parse as numbers but are not written the way xenbus prints them
// ("007", "00") still faces the frontend of the domain and device they
// parse to, so it is judged by that frontend like any other backend.
func TestFsckBackendNamesNotDecimal(t *testing.T) {
	e, vm := fsckHost(t)
	id := strconv.Itoa(int(vm.Dom.ID))
	root := xenbus.BackendDir(hv.DevVif) + "/00" + id
	e.Store.Write(root+"/00/state", "4") // faces the live frontend vif[0]
	e.Store.Write(root+"/01/state", "4") // faces a vif[1] the guest lacks
	want := []Violation{{"xenstore", "backend-without-frontend", root + "/01", "no frontend dir for dom " + id + " vif[1]"}}
	if got := Fsck(e); !reflect.DeepEqual(got, want) {
		t.Fatalf("fsck = %v\nwant   %v", got, want)
	}
}
