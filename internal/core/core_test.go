package core

import (
	"fmt"
	"testing"
	"time"

	"lightvm/internal/apps"
	"lightvm/internal/guest"
	"lightvm/internal/sched"
	"lightvm/internal/sim"
	"lightvm/internal/toolstack"
	"lightvm/internal/vnet"
)

func newHost(t *testing.T) *Host {
	t.Helper()
	h, err := NewHost(sched.Xeon4, 1)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestHostLifecycle(t *testing.T) {
	h := newHost(t)
	vm, err := h.CreateVM(toolstack.ModeChaosNoXS, "g1", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	if h.VMs() != 1 {
		t.Fatalf("VMs = %d", h.VMs())
	}
	// The vif landed on the real switch.
	if h.Switch.Ports() != 1 {
		t.Fatalf("switch ports = %d", h.Switch.Ports())
	}
	if err := h.DestroyVM(vm); err != nil {
		t.Fatal(err)
	}
	if h.VMs() != 0 || h.Switch.Ports() != 0 {
		t.Fatalf("teardown incomplete: vms=%d ports=%d", h.VMs(), h.Switch.Ports())
	}
}

func TestDriverCached(t *testing.T) {
	h := newHost(t)
	if h.Driver(toolstack.ModeXL) != h.Driver(toolstack.ModeXL) {
		t.Fatal("driver not cached")
	}
}

func TestEnsureFlavorStocksPool(t *testing.T) {
	h := newHost(t)
	if err := h.EnsureFlavor(guest.Daytime(), toolstack.ModeLightVM); err != nil {
		t.Fatal(err)
	}
	vm, err := h.CreateVM(toolstack.ModeLightVM, "fast", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	total := vm.CreateTime + vm.BootTime
	if total > 8*time.Millisecond {
		t.Fatalf("LightVM create+boot with stocked pool = %v", total)
	}
	// No pool miss beyond the initial flavor registration.
	if h.Env.Pool.Stats.Misses > 1 {
		t.Fatalf("misses = %d", h.Env.Pool.Stats.Misses)
	}
}

func TestVMsAndContainersShareMemoryBudget(t *testing.T) {
	h := newHost(t)
	before := h.MemoryUsedBytes()
	if _, err := h.CreateVM(toolstack.ModeChaosNoXS, "vm", guest.Minipython()); err != nil {
		t.Fatal(err)
	}
	afterVM := h.MemoryUsedBytes()
	if afterVM <= before {
		t.Fatal("VM consumed no memory")
	}
	if _, err := h.Docker.Run("micropython"); err != nil {
		t.Fatal(err)
	}
	if h.MemoryUsedBytes() <= afterVM {
		t.Fatal("container consumed no memory")
	}
	if _, err := h.Procs.Spawn(1 << 20); err != nil {
		t.Fatal(err)
	}
}

func TestCPUUtilizationGrowsWithDebianGuests(t *testing.T) {
	h, err := NewHost(sched.Machine{Name: "big", Cores: 4, Dom0Cores: 1, MemoryGB: 512}, 1)
	if err != nil {
		t.Fatal(err)
	}
	u0 := h.CPUUtilization()
	for i := 0; i < 50; i++ {
		if _, err := h.CreateVM(toolstack.ModeChaosNoXS, fmt.Sprintf("d%d", i), guest.DebianMinimal()); err != nil {
			t.Fatal(err)
		}
	}
	if h.CPUUtilization() <= u0 {
		t.Fatal("utilization flat with 50 Debian guests")
	}
}

func TestSaveRestoreThroughHost(t *testing.T) {
	h := newHost(t)
	vm, err := h.CreateVM(toolstack.ModeChaosNoXS, "ck", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	cp, saveT, err := h.Save(vm)
	if err != nil {
		t.Fatal(err)
	}
	restored, restT, err := h.Restore(cp)
	if err != nil {
		t.Fatal(err)
	}
	if saveT <= 0 || restT <= 0 || restored.Name != "ck" {
		t.Fatalf("save=%v restore=%v vm=%+v", saveT, restT, restored)
	}
}

func TestMigrateBetweenHosts(t *testing.T) {
	clock := sim.NewClock()
	src, err := NewHostOn(clock, sched.Xeon4, 1)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewHostOn(clock, sched.Xeon4, 2)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := src.CreateVM(toolstack.ModeChaosNoXS, "m", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	moved, d, err := src.MigrateTo(dst, vm)
	if err != nil {
		t.Fatal(err)
	}
	if d <= 0 || moved.Name != "m" || src.VMs() != 0 || dst.VMs() != 1 {
		t.Fatalf("migration wrong: d=%v src=%d dst=%d", d, src.VMs(), dst.VMs())
	}
}

func TestGuestTable(t *testing.T) {
	rows := GuestTable()
	if len(rows) < 10 {
		t.Fatalf("guest table has %d rows", len(rows))
	}
	for _, r := range rows {
		if r.ImageMB <= 0 || r.RuntimeMB <= 0 {
			t.Fatalf("bad row %+v", r)
		}
	}
}

func TestDeterministicAcrossHosts(t *testing.T) {
	run := func() (time.Duration, uint64) {
		h, err := NewHost(sched.Xeon4, 42)
		if err != nil {
			t.Fatal(err)
		}
		vm, err := h.CreateVM(toolstack.ModeChaosXS, "d", guest.TinyxNoop())
		if err != nil {
			t.Fatal(err)
		}
		return vm.CreateTime + vm.BootTime, h.MemoryUsedBytes()
	}
	t1, m1 := run()
	t2, m2 := run()
	if t1 != t2 || m1 != m2 {
		t.Fatalf("non-deterministic: %v/%v %d/%d", t1, t2, m1, m2)
	}
}

func TestTraceRecordsLifecycle(t *testing.T) {
	h := newHost(t)
	log := h.EnableTrace(0)
	vm, err := h.CreateVM(toolstack.ModeChaosNoXS, "traced", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	cp, _, err := h.Save(vm)
	if err != nil {
		t.Fatal(err)
	}
	vm2, _, err := h.Restore(cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.DestroyVM(vm2); err != nil {
		t.Fatal(err)
	}
	if len(log.Filter("toolstack", "create")) != 1 {
		t.Fatalf("create events = %d", len(log.Filter("toolstack", "create")))
	}
	if len(log.Filter("migrate", "save")) != 1 || len(log.Filter("migrate", "restore")) != 1 {
		t.Fatal("checkpoint events missing")
	}
	if len(log.Filter("toolstack", "destroy")) != 1 {
		t.Fatal("destroy event missing")
	}
	// Timestamps are monotone.
	evs := log.Events()
	for i := 1; i < len(evs); i++ {
		if evs[i].At < evs[i-1].At {
			t.Fatal("trace out of order")
		}
	}
}

func TestFirewallDataPathEndToEnd(t *testing.T) {
	// Packet-level validation of the §7.1 use case: a packet stream
	// through the host switch into a firewall VM's rule engine.
	h := newHost(t)
	vm, err := h.CreateVM(toolstack.ModeChaosNoXS, "fw", guest.ClickOSFirewall())
	if err != nil {
		t.Fatal(err)
	}
	fw, err := apps.NewPersonalFirewall("10.7.0.0/16", []string{"203.0.113.0/24"})
	if err != nil {
		t.Fatal(err)
	}
	good, _ := apps.ParseIPv4("10.7.1.2")
	bad, _ := apps.ParseIPv4("203.0.113.5")
	dst, _ := apps.ParseIPv4("198.51.100.1")

	vif := fmt.Sprintf("vif%d.0", vm.Dom.ID)
	forwarded, blocked := 0, 0
	if err := h.Switch.SetHandler(vif, func(p vnet.Packet) {
		src := good
		if p.Seq%2 == 0 {
			src = bad
		}
		if fw.Filter(src, dst, 443) == apps.Allow {
			forwarded++
		} else {
			blocked++
		}
	}); err != nil {
		t.Fatal(err)
	}
	if err := h.Switch.AttachPort("uplink"); err != nil {
		t.Fatal(err)
	}
	if err := h.Switch.SetHandler("uplink", func(vnet.Packet) {}); err != nil {
		t.Fatal(err)
	}
	delivered := 0
	for seq := uint64(1); seq <= 100; seq++ {
		if h.Switch.Send(vnet.Packet{Src: "uplink", Dst: vif, Kind: vnet.PktUDP, Size: 1500, Seq: seq}) {
			delivered++
		}
	}
	if delivered != 100 {
		t.Fatalf("delivered %d of 100 packets", delivered)
	}
	if forwarded == 0 || blocked == 0 {
		t.Fatalf("verdicts: forwarded=%d blocked=%d", forwarded, blocked)
	}
	if forwarded+blocked != delivered {
		t.Fatalf("verdicts %d != delivered %d", forwarded+blocked, delivered)
	}
	if fw.Denied == 0 {
		t.Fatal("firewall counters untouched")
	}
}

func TestAppWiringAnswersPings(t *testing.T) {
	h := newHost(t)
	vm, err := h.CreateVM(toolstack.ModeChaosNoXS, "pingme", guest.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	if !h.Ping(vm) {
		t.Fatal("booted daytime VM did not answer a ping")
	}
	// The daytime app serves TCP connections.
	d, ok := h.AppOf("pingme").(*apps.Daytime)
	if !ok {
		t.Fatalf("AppOf = %T", h.AppOf("pingme"))
	}
	vif := fmt.Sprintf("vif%d.0", vm.Dom.ID)
	h.Switch.Send(vnet.Packet{Src: "ping-probe", Dst: vif, Kind: vnet.PktTCP, Size: 64})
	if d.Served != 1 {
		t.Fatalf("daytime served %d connections", d.Served)
	}
	// Noop guests have no vif: no ping, no app.
	noop, err := h.CreateVM(toolstack.ModeChaosNoXS, "quiet", guest.Noop())
	if err != nil {
		t.Fatal(err)
	}
	if h.Ping(noop) {
		t.Fatal("device-less guest answered a ping")
	}
	if err := h.DestroyVM(vm); err != nil {
		t.Fatal(err)
	}
	if h.AppOf("pingme") != nil {
		t.Fatal("app survived destroy")
	}
}

func TestPauseUnpause(t *testing.T) {
	h, err := NewHost(sched.Machine{Name: "p", Cores: 4, Dom0Cores: 1, MemoryGB: 64}, 1)
	if err != nil {
		t.Fatal(err)
	}
	var vms []*toolstack.VM
	for i := 0; i < 30; i++ {
		vm, err := h.CreateVM(toolstack.ModeChaosNoXS, fmt.Sprintf("d%d", i), guest.DebianMinimal())
		if err != nil {
			t.Fatal(err)
		}
		vms = append(vms, vm)
	}
	busy := h.CPUUtilization()
	memBusy := h.MemoryUsedBytes()
	for _, vm := range vms {
		if err := h.PauseVM(vm); err != nil {
			t.Fatal(err)
		}
	}
	// Frozen guests burn no CPU but keep their memory (the Lambda
	// freeze semantics of §2).
	if got := h.CPUUtilization(); got >= busy {
		t.Fatalf("utilization after pause = %v, was %v", got, busy)
	}
	if h.MemoryUsedBytes() != memBusy {
		t.Fatal("pause released memory")
	}
	// Double pause is rejected; thaw restores the load.
	if err := h.PauseVM(vms[0]); err == nil {
		t.Fatal("double pause accepted")
	}
	start := h.Clock.Now()
	for _, vm := range vms {
		if err := h.UnpauseVM(vm); err != nil {
			t.Fatal(err)
		}
	}
	thaw := time.Duration(h.Clock.Now().Sub(start)) / 30
	if thaw > time.Millisecond {
		t.Fatalf("unpause cost %v per guest, want ≪1ms", thaw)
	}
	if got := h.CPUUtilization(); got < busy*0.95 {
		t.Fatalf("utilization after thaw = %v, was %v", got, busy)
	}
}
