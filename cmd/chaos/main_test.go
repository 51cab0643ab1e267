package main

import (
	"io"
	"os"
	"testing"
)

// capture runs fn with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, fn func() error) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout := os.Stdout
	os.Stdout = w
	runErr := fn()
	os.Stdout = stdout
	w.Close()
	out, err := io.ReadAll(r)
	r.Close()
	if err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatal(runErr)
	}
	return string(out)
}

// TestConsoleOutput pins `chaos -op console` byte for byte in every
// mode: the boot banner's wording, device count, device path and the
// virtual boot time all come out of the simulated lifecycle.
func TestConsoleOutput(t *testing.T) {
	cases := []struct{ mode, image, want string }{
		{"xl", "daytime", "console of daytime-0 (domid 1):\n" +
			"daytime-0: booting daytime (unikernel) on vcpu->core 1\n" +
			"daytime-0: 1 device(s) connected via xenbus\n" +
			"daytime-0: ready in 66.598311ms\n"},
		{"xl", "debian", "console of debian-0 (domid 1):\n" +
			"debian-0: booting debian (debian) on vcpu->core 1\n" +
			"debian-0: 3 device(s) connected via xenbus\n" +
			"debian-0: ready in 2.651002199s\n"},
		{"xs", "daytime", "console of daytime-0 (domid 1):\n" +
			"daytime-0: booting daytime (unikernel) on vcpu->core 1\n" +
			"daytime-0: 1 device(s) connected via xenbus\n" +
			"daytime-0: ready in 13.115711ms\n"},
		{"xs", "debian", "console of debian-0 (domid 1):\n" +
			"debian-0: booting debian (debian) on vcpu->core 1\n" +
			"debian-0: 3 device(s) connected via xenbus\n" +
			"debian-0: ready in 2.597028199s\n"},
		{"split", "daytime", "console of daytime-0 (domid 1):\n" +
			"daytime-0: booting daytime (unikernel) on vcpu->core 1\n" +
			"daytime-0: 1 device(s) connected via xenbus\n" +
			"daytime-0: ready in 284.218804ms\n"},
		{"split", "debian", "console of debian-0 (domid 1):\n" +
			"debian-0: booting debian (debian) on vcpu->core 1\n" +
			"debian-0: 3 device(s) connected via xenbus\n" +
			"debian-0: ready in 2.941190299s\n"},
		{"noxs", "daytime", "console of daytime-0 (domid 1):\n" +
			"daytime-0: booting daytime (unikernel) on vcpu->core 1\n" +
			"daytime-0: 1 device(s) connected via noxs\n" +
			"daytime-0: ready in 8.174511ms\n"},
		{"noxs", "debian", "console of debian-0 (domid 1):\n" +
			"debian-0: booting debian (debian) on vcpu->core 1\n" +
			"debian-0: 3 device(s) connected via noxs\n" +
			"debian-0: ready in 2.578406399s\n"},
		{"lightvm", "daytime", "console of daytime-0 (domid 1):\n" +
			"daytime-0: booting daytime (unikernel) on vcpu->core 1\n" +
			"daytime-0: 1 device(s) connected via noxs\n" +
			"daytime-0: ready in 32.588104ms\n"},
		{"lightvm", "debian", "console of debian-0 (domid 1):\n" +
			"debian-0: booting debian (debian) on vcpu->core 1\n" +
			"debian-0: 3 device(s) connected via noxs\n" +
			"debian-0: ready in 2.627860399s\n"},
	}
	for _, c := range cases {
		got := capture(t, func() error { return run("console", c.image, c.mode, 1, 1, false, "") })
		if got != c.want {
			t.Errorf("chaos -op console -mode %s -image %s:\n got %q\nwant %q", c.mode, c.image, got, c.want)
		}
	}
}
