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

// BenchmarkChargeReads charges xl's 200 state re-reads of one guest's
// name on a store holding 1,000 guests.
func BenchmarkChargeReads(b *testing.B) {
	s := guestStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.ChargeReads("/local/domain/500", "name", 200)
	}
}

func BenchmarkDirectory(b *testing.B) {
	s := benchStore(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Directory("/local/domain"); err != nil {
			b.Fatal(err)
		}
	}
}

// guestStore holds 1,000 guests, the scale of the density figures,
// where the listings below dominated xl's per-creation host cost.
func guestStore() *Store {
	s, _ := newStore()
	s.LoggingEnabled = false
	populateGuests(s, 1000)
	return s
}

// BenchmarkDirectoryGuests lists the 1,000 guests' /local/domain, as
// fsck and scrub do.
func BenchmarkDirectoryGuests(b *testing.B) {
	s := guestStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Directory("/local/domain"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDirectoryLenGuests is BenchmarkDirectoryGuests counting
// instead of listing, as xl does on every creation.
func BenchmarkDirectoryLenGuests(b *testing.B) {
	s := guestStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.DirectoryLen("/local/domain"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSteadyWrite overwrites one guest's leaf on a store holding
// 1,000 guests with no snapshot taken: the steady-state plain write.
func BenchmarkSteadyWrite(b *testing.B) {
	s := guestStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Write("/local/domain/500/device/vif/0/state", "4")
	}
}

// BenchmarkRmRecreate removes one guest's leaf and writes it back on a
// store holding 1,000 guests: the remove-and-recreate pair of device
// teardown and setup.
func BenchmarkRmRecreate(b *testing.B) {
	const path = "/local/domain/500/control/shutdown"
	s := guestStore()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Rm(path); err != nil {
			b.Fatal(err)
		}
		s.Write(path, "")
	}
}

func BenchmarkTxnCommit(b *testing.B) {
	s := benchStore(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		err := s.Txn(8, func(tx *Tx) error {
			tx.Write("/local/domain/3/device/vif/0/state", "4")
			tx.Write("/local/domain/3/device/vif/0/event-channel", "17")
			if _, err := tx.ReadAt("/local/domain/3/name", ""); err != nil {
				return err
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTxnCommitDevice commits a vif device entry on a store
// holding 1,000 guests: the 12 writes of xenbus.WriteDeviceEntries plus
// the frontend's event channel, 13 writes under two 6-deep prefixes.
// It cycles through the guests, so each commit rewrites one guest's
// entries. The paths are built in set-up, so the loop measures the
// commit alone.
func BenchmarkTxnCommitDevice(b *testing.B) {
	const guests = 1000
	s, _ := newStore()
	s.LoggingEnabled = false
	populateGuests(s, guests)
	sets := make([][][2]string, guests)
	for g := range sets {
		sets[g] = deviceWrites(strconv.Itoa(g+1), "00:16:3e:00:00:"+strconv.Itoa(g%100))
	}
	commit := func(g int) {
		tx := s.TxnStart()
		for _, w := range sets[g] {
			tx.Write(w[0], w[1])
		}
		if err := tx.Commit(); err != nil {
			b.Fatal(err)
		}
	}
	for g := range sets {
		commit(g)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		commit(i % guests)
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
			if _, err := tx.ReadAt("/local/domain/3/name", ""); err != nil {
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
