package lightvm_test

import (
	"strings"
	"testing"
	"time"

	"lightvm"
)

func TestQuickstartFlow(t *testing.T) {
	host, err := lightvm.NewHost(lightvm.Xeon4, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := host.EnsureFlavor(lightvm.Daytime(), lightvm.ModeLightVM); err != nil {
		t.Fatal(err)
	}
	vm, err := host.CreateVM(lightvm.ModeLightVM, "web1", lightvm.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	total := vm.CreateTime + vm.BootTime
	if total > 8*time.Millisecond {
		t.Fatalf("LightVM daytime create+boot = %v, want a few ms", total)
	}
	if err := host.DestroyVM(vm); err != nil {
		t.Fatal(err)
	}
}

func TestMigrationAcrossHosts(t *testing.T) {
	clock := lightvm.NewClock()
	src, err := lightvm.NewHostOn(clock, lightvm.Xeon4Ckpt, 1)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := lightvm.NewHostOn(clock, lightvm.Xeon4Ckpt, 2)
	if err != nil {
		t.Fatal(err)
	}
	vm, err := src.CreateVM(lightvm.ModeChaosNoXS, "mover", lightvm.Daytime())
	if err != nil {
		t.Fatal(err)
	}
	moved, d, err := src.MigrateTo(dst, vm)
	if err != nil {
		t.Fatal(err)
	}
	if moved.Name != "mover" || d <= 0 {
		t.Fatalf("migration: %v %v", moved.Name, d)
	}
}

func TestExperimentListing(t *testing.T) {
	ids := lightvm.Experiments()
	if len(ids) < 17 {
		t.Fatalf("only %d experiments registered", len(ids))
	}
}

func TestRunExperimentSmall(t *testing.T) {
	out, err := lightvm.RunExperimentsOpts([]string{"fig09"}, lightvm.ExperimentOptions{Scale: 0.03, Seed: 1, Parallel: 1})
	if err != nil {
		t.Fatal(err)
	}
	res := out[0]
	if res.ID != "fig09" || res.Paper == "" {
		t.Fatalf("metadata: %+v", res)
	}
	for _, want := range []string{"xl_ms", "lightvm_ms", "note:"} {
		if !strings.Contains(res.Output, want) {
			t.Fatalf("output missing %q:\n%s", want, res.Output)
		}
	}
	if _, err := lightvm.RunExperimentsOpts([]string{"nonesuch"}, lightvm.ExperimentOptions{Scale: 1, Seed: 1, Parallel: 1}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestBuildTinyx(t *testing.T) {
	res, err := lightvm.BuildTinyx("micropython", "xen")
	if err != nil {
		t.Fatal(err)
	}
	if res.ImageBytes == 0 || len(res.Packages) == 0 {
		t.Fatalf("empty build: %+v", res)
	}
	if _, err := lightvm.BuildTinyx("nonesuch", "xen"); err == nil {
		t.Fatal("unknown app accepted")
	}
	apps := lightvm.TinyxApps()
	if len(apps) < 10 {
		t.Fatalf("tinyx universe has %d packages", len(apps))
	}
}

func TestRunPython(t *testing.T) {
	out, err := lightvm.RunPython(lightvm.ApproxEProgram)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(strings.TrimSpace(out), "2.718281828") {
		t.Fatalf("e ≈ %q", out)
	}
	if _, err := lightvm.RunPython("def broken(:"); err == nil {
		t.Fatal("syntax error not surfaced")
	}
}

func TestImageByName(t *testing.T) {
	im, err := lightvm.ImageByName("daytime")
	if err != nil || im.Name != "daytime" {
		t.Fatalf("ImageByName: %v %v", im.Name, err)
	}
}

func TestClusterThroughFacade(t *testing.T) {
	c := lightvm.NewCluster(lightvm.NewClock())
	if _, err := c.AddHost("edge-a", lightvm.Xeon14, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddHost("edge-b", lightvm.Xeon14, 2); err != nil {
		t.Fatal(err)
	}
	_, host, err := c.Place(lightvm.ModeChaosNoXS, "fw-bob", lightvm.ClickOSFirewall())
	if err != nil {
		t.Fatal(err)
	}
	other := "edge-b"
	if host == other {
		other = "edge-a"
	}
	if _, err := c.Move("fw-bob", other); err != nil {
		t.Fatal(err)
	}
	if got, _ := c.HostOf("fw-bob"); got != other {
		t.Fatalf("HostOf = %q", got)
	}
}
