package syscalls

import "testing"

func TestDatasetShape(t *testing.T) {
	if len(Releases) < 12 {
		t.Fatalf("dataset has %d points", len(Releases))
	}
	// Chronological and monotone non-decreasing (the figure's point).
	for i := 1; i < len(Releases); i++ {
		if Releases[i].Year < Releases[i-1].Year {
			t.Fatalf("years out of order at %d", i)
		}
		if Releases[i].Syscalls < Releases[i-1].Syscalls {
			t.Fatalf("syscall count shrank at %s", Releases[i].Version)
		}
	}
	first, last := Releases[0], Releases[len(Releases)-1]
	if first.Year != 2002 || last.Year != 2018 {
		t.Fatalf("year span %d–%d, want 2002–2018", first.Year, last.Year)
	}
	// Fig. 1 axis range: ~200 at the left, ~400 at the right.
	if first.Syscalls < 200 || first.Syscalls > 260 {
		t.Fatalf("2002 count = %d", first.Syscalls)
	}
	if last.Syscalls < 380 || last.Syscalls > 420 {
		t.Fatalf("2018 count = %d", last.Syscalls)
	}
}

func TestGrowthPositive(t *testing.T) {
	g := GrowthPerYear()
	// Roughly 9-10 syscalls/year over the span.
	if g < 5 || g > 15 {
		t.Fatalf("growth = %.1f syscalls/year", g)
	}
}

func TestSortedCopies(t *testing.T) {
	s := Sorted()
	s[0].Syscalls = -1
	if Releases[0].Syscalls == -1 {
		t.Fatal("Sorted aliased the dataset")
	}
}

func TestABISurfaceTiny(t *testing.T) {
	if X86ABISurface*10 >= Releases[0].Syscalls {
		t.Fatal("the VM interface should be an order of magnitude narrower")
	}
}
