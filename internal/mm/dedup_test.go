package mm

import (
	"errors"
	"testing"
)

func TestShareAcquireRelease(t *testing.T) {
	a := newTest(64)
	p := NewSharePool(a)
	paid, err := p.Acquire("kernel:daytime", 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if paid != 1<<20 {
		t.Fatalf("first acquire paid %d", paid)
	}
	used := a.UsedBytes()
	// 99 more sharers pay nothing.
	for i := 0; i < 99; i++ {
		paid, err := p.Acquire("kernel:daytime", 1<<20)
		if err != nil {
			t.Fatal(err)
		}
		if paid != 0 {
			t.Fatalf("share hit paid %d bytes", paid)
		}
	}
	if a.UsedBytes() != used {
		t.Fatal("share hits allocated memory")
	}
	if p.Refs("kernel:daytime") != 100 {
		t.Fatalf("refs = %d", p.Refs("kernel:daytime"))
	}
	// Releases free only at zero refs.
	for i := 0; i < 99; i++ {
		if err := p.Release("kernel:daytime"); err != nil {
			t.Fatal(err)
		}
	}
	if a.UsedBytes() != used {
		t.Fatal("early release freed shared pages")
	}
	if err := p.Release("kernel:daytime"); err != nil {
		t.Fatal(err)
	}
	if a.UsedBytes() != 0 {
		t.Fatal("last release leaked")
	}
	if p.Regions() != 0 {
		t.Fatal("region survived")
	}
}

func TestShareSizeMismatch(t *testing.T) {
	p := NewSharePool(newTest(8))
	if _, err := p.Acquire("k", 4096); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Acquire("k", 8192); err == nil {
		t.Fatal("size mismatch accepted")
	}
	if _, err := p.Acquire("z", 0); err == nil {
		t.Fatal("zero-byte share accepted")
	}
}

func TestReleaseUnknown(t *testing.T) {
	p := NewSharePool(newTest(8))
	if err := p.Release("ghost"); !errors.Is(err, ErrNoShare) {
		t.Fatalf("release of unknown: %v", err)
	}
}

func TestSharedBytesCountsOnce(t *testing.T) {
	p := NewSharePool(newTest(64))
	_, _ = p.Acquire("a", 1<<20)
	_, _ = p.Acquire("a", 1<<20)
	_, _ = p.Acquire("b", 2<<20)
	if p.SharedBytes() != 3<<20 {
		t.Fatalf("SharedBytes = %d", p.SharedBytes())
	}
	if p.Regions() != 2 {
		t.Fatalf("Regions = %d", p.Regions())
	}
}
