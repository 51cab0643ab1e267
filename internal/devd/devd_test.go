package devd

import (
	"errors"
	"testing"
	"time"

	"lightvm/internal/costs"
	"lightvm/internal/sim"
)

func TestBashScriptsChargesForkExecCost(t *testing.T) {
	clock := sim.NewClock()
	br := NewBridge()
	hp := &BashScripts{Clock: clock, Bridge: br}
	if err := hp.Setup(1, 0); err != nil {
		t.Fatal(err)
	}
	if clock.Now().Sub(0) < costs.HotplugBashScript {
		t.Fatalf("bash setup charged %v, want ≥%v", clock.Now(), costs.HotplugBashScript)
	}
	if br.Ports() != 1 || hp.Invocations != 1 {
		t.Fatalf("ports=%d invocations=%d", br.Ports(), hp.Invocations)
	}
	if err := hp.Teardown(1, 0); err != nil {
		t.Fatal(err)
	}
	if br.Ports() != 0 || hp.Invocations != 2 {
		t.Fatalf("after teardown: ports=%d invocations=%d", br.Ports(), hp.Invocations)
	}
}

func TestXendevdMuchCheaperThanBash(t *testing.T) {
	c1, c2 := sim.NewClock(), sim.NewClock()
	bash := &BashScripts{Clock: c1, Bridge: NewBridge()}
	xd := &Xendevd{Clock: c2, Bridge: NewBridge()}
	for i := 1; i <= 10; i++ {
		if err := bash.Setup(i, 0); err != nil {
			t.Fatal(err)
		}
		if err := xd.Setup(i, 0); err != nil {
			t.Fatal(err)
		}
	}
	if time.Duration(c2.Now()) >= time.Duration(c1.Now())/10 {
		t.Fatalf("xendevd (%v) not ≥10× cheaper than bash (%v)", c2.Now(), c1.Now())
	}
}

func TestNames(t *testing.T) {
	if (&BashScripts{}).Name() != "bash-hotplug" || (&Xendevd{}).Name() != "xendevd" {
		t.Fatal("hotplug names wrong")
	}
}

// The bridge holds each port once, and every hotplug failure — on
// setup or teardown, by either mechanism — wraps ErrHotplug.
func TestBridgePortsAndHotplugErrors(t *testing.T) {
	br := NewBridge()
	if err := br.AttachPort(1, 0); err != nil {
		t.Fatal(err)
	}
	if err := br.AttachPort(1, 0); err == nil {
		t.Fatal("duplicate attach accepted")
	}
	if err := br.DetachPort(9, 0); err == nil {
		t.Fatal("detach of an unknown port accepted")
	}
	if br.Ports() != 1 {
		t.Fatalf("ports = %d, want 1", br.Ports())
	}
	for _, hp := range []Hotplug{
		&BashScripts{Clock: sim.NewClock(), Bridge: br},
		&Xendevd{Clock: sim.NewClock(), Bridge: br},
	} {
		if err := hp.Setup(1, 0); !errors.Is(err, ErrHotplug) {
			t.Fatalf("%s: duplicate setup: %v", hp.Name(), err)
		}
		if err := hp.Teardown(9, 0); !errors.Is(err, ErrHotplug) {
			t.Fatalf("%s: teardown of an unknown vif: %v", hp.Name(), err)
		}
	}
	if err := br.DetachPort(1, 0); err != nil || br.Ports() != 0 {
		t.Fatalf("detach: %v, ports = %d", err, br.Ports())
	}
}
