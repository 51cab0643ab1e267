package console

import (
	"errors"
	"strings"
	"testing"
)

func TestWriteRead(t *testing.T) {
	d := NewDaemon()
	d.Attach(3)
	if err := d.Write(3, "booting daytime\n"); err != nil {
		t.Fatal(err)
	}
	if err := d.Writef(3, "ready in %dms\n", 4); err != nil {
		t.Fatal(err)
	}
	out, err := d.Read(3)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "booting daytime") || !strings.Contains(out, "ready in 4ms") {
		t.Fatalf("console = %q", out)
	}
}

func TestNoConsole(t *testing.T) {
	d := NewDaemon()
	if err := d.Write(9, "x"); !errors.Is(err, ErrNoConsole) {
		t.Fatalf("write without attach: %v", err)
	}
	if _, err := d.Read(9); !errors.Is(err, ErrNoConsole) {
		t.Fatalf("read without attach: %v", err)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	d := NewDaemon()
	d.Attach(1)
	first := strings.Repeat("A", 1000)
	_ = d.Write(1, first)
	_ = d.Write(1, strings.Repeat("B", RingSize))
	out, _ := d.Read(1)
	if strings.Contains(out, "A") {
		t.Fatal("oldest bytes survived overflow")
	}
	if !strings.Contains(out, "bytes dropped") {
		t.Fatal("drop marker missing")
	}
	if len(out) > RingSize+64 {
		t.Fatalf("ring exceeded capacity: %d", len(out))
	}
}

func TestDetach(t *testing.T) {
	d := NewDaemon()
	d.Attach(5)
	_ = d.Write(5, "kept\n")
	d.Attach(5) // idempotent: the ring survives
	if out, _ := d.Read(5); out != "kept\n" {
		t.Fatalf("re-attach reset the ring: %q", out)
	}
	d.Detach(5)
	if _, err := d.Read(5); !errors.Is(err, ErrNoConsole) {
		t.Fatalf("read after detach: %v", err)
	}
}
