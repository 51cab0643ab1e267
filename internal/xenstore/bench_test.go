package xenstore

import (
	"strconv"
	"testing"
)

// Microbenchmarks for the store's hot operations. The experiment
// sweeps hammer exactly these paths (a single xl creation issues ~250
// store ops), so together with the alloc budgets in alloc_test.go
// they are the first line of defense against hot-path regressions:
// run with -benchmem and compare allocs/op before trusting a BENCH
// comparison.

// benchStore builds a store shaped like a small host: a handful of
// domains with device entries, so resolves walk realistic depth and
// directory listings have realistic fanout.
func benchStore(b *testing.B) *Store {
	b.Helper()
	s, _ := newStore()
	for d := 0; d < 8; d++ {
		dom := "/local/domain/" + strconv.Itoa(d)
		s.Write(dom+"/name", "g"+strconv.Itoa(d))
		s.Write(dom+"/device/vif/0/state", "4")
		s.Write(dom+"/device/vif/0/mac", "00:16:3e:00:00:01")
		s.Write("/local/domain/0/backend/vif/"+strconv.Itoa(d)+"/0/state", "4")
	}
	return s
}

func BenchmarkWrite(b *testing.B) {
	s := benchStore(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Write("/local/domain/3/device/vif/0/state", "4")
	}
}

func BenchmarkRead(b *testing.B) {
	s := benchStore(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Read("/local/domain/3/device/vif/0/state"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDirectory(b *testing.B) {
	s := benchStore(b)
	var buf []string
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var err error
		if buf, err = s.DirectoryAppend("/local/domain", buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTxnCommit(b *testing.B) {
	s := benchStore(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := s.Txn(8, func(tx *Tx) error {
			tx.Write("/local/domain/3/device/vif/0/state", "4")
			tx.Write("/local/domain/3/device/vif/0/event-channel", "17")
			if _, err := tx.Read("/local/domain/3/name"); err != nil {
				return err
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTxnChurn is BenchmarkTxnCommit on a fresh domain id per
// iteration, the shape of serving churn: no written path repeats, so
// any store-side state kept per distinct path shows up here (and never
// in BenchmarkTxnCommit, which reuses its paths). Each domain is
// removed after its commit, as churn tears guests down, so the tree
// stays the same size at any b.N.
func BenchmarkTxnChurn(b *testing.B) {
	s := benchStore(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		dom := "/local/domain/" + strconv.Itoa(100+i)
		err := s.Txn(8, func(tx *Tx) error {
			tx.Write(dom+"/device/vif/0/state", "4")
			tx.Write(dom+"/device/vif/0/event-channel", "17")
			if _, err := tx.Read("/local/domain/3/name"); err != nil {
				return err
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Rm(dom); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWatchFire(b *testing.B) {
	s := benchStore(b)
	fired := 0
	s.Watch("/local/domain/3/device", "tok", func(string, string) { fired++ })
	// Unrelated watches: delivery must look up the written path's own
	// buckets, not scan these.
	for d := 0; d < 32; d++ {
		s.Watch("/local/domain/0/backend/vif/"+strconv.Itoa(d), "other", func(string, string) {})
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Write("/local/domain/3/device/vif/0/state", "4")
	}
	if fired != b.N {
		b.Fatalf("watch fired %d times over %d writes", fired, b.N)
	}
}
