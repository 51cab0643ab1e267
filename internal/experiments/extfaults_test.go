package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"lightvm/internal/metrics"
	"lightvm/internal/toolstack"
)

// marshalFaults runs ext-faults and returns the table as JSON bytes.
func marshalFaults(t *testing.T, seed uint64, parallel int) []byte {
	t.Helper()
	res, err := Run("ext-faults", Options{Scale: 0.05, Seed: seed, Parallel: parallel})
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res.Table)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestExtFaultsDeterministicPerSeed(t *testing.T) {
	a := marshalFaults(t, 5, 1)
	b := marshalFaults(t, 5, 1)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different tables")
	}
	// Parallel execution must not perturb the result either: every
	// (mode, rate) cell owns its clock and injector.
	c := marshalFaults(t, 5, 4)
	if !bytes.Equal(a, c) {
		t.Fatal("parallel run diverged from sequential run with the same seed")
	}
	d := marshalFaults(t, 6, 1)
	if bytes.Equal(a, d) {
		t.Fatal("different seeds produced identical tables")
	}
}

func TestExtFaultsShowsDegradationUnderFaults(t *testing.T) {
	res, err := Run("ext-faults", Options{Scale: 0.3, Seed: 1, Parallel: 0})
	if err != nil {
		t.Fatal(err)
	}
	tab, ok := res.Table.(*metrics.Table)
	if !ok {
		t.Fatalf("table is %T", res.Table)
	}
	if len(tab.Rows) != len(faultRates) {
		t.Fatalf("got %d rows, want %d", len(tab.Rows), len(faultRates))
	}
	// Column layout: rate, xl create p50/p99, xl mig p50/p99, xl avail,
	// chaos create p50/p99, chaos mig p50/p99, chaos avail.
	const (
		colXLCreateP50 = 1
		colXLCreateP99 = 2
		colXLAvail     = 5
		colChAvail     = 10
	)
	row0 := tab.Rows[0]
	if row0[0] != 0 {
		t.Fatalf("first row rate %v, want 0", row0[0])
	}
	if row0[colXLAvail] != 100 || row0[colChAvail] != 100 {
		t.Fatalf("rate-0 availability %v/%v, want 100/100", row0[colXLAvail], row0[colChAvail])
	}
	anyOutage, anyTail := false, false
	for _, row := range tab.Rows[1:] {
		if row[colXLAvail] < 100 || row[colChAvail] < 100 {
			anyOutage = true
		}
		if row[colXLCreateP99] > row[colXLCreateP50] {
			anyTail = true
		}
	}
	if !anyOutage {
		t.Fatal("no fault rate produced availability below 100%")
	}
	if !anyTail {
		t.Fatal("no fault rate produced a p99 above p50")
	}
	// Fault pressure must show in the xl tail: the highest rate's p99
	// strictly above the undisturbed one.
	last := tab.Rows[len(tab.Rows)-1]
	if last[colXLCreateP99] <= row0[colXLCreateP99] {
		t.Fatalf("xl create p99 at max rate (%v ms) not above rate-0 (%v ms)",
			last[colXLCreateP99], row0[colXLCreateP99])
	}
}

// TestExtFaultsSurvivesFailoverFault replays the paper-scale seed-3
// cell (xl at rate 0.16) in which a failover re-placement hits a device
// handshake timeout. That typed fault must not abort the figure: the
// lost VMs are already counted as failed ops, the sweep goes on, and
// every surviving host still audits clean.
func TestExtFaultsSurvivesFailoverFault(t *testing.T) {
	const seed, ri = 3, 4 // cell j = ri for xl, the first mode
	if faultRates[ri] != 0.16 {
		t.Fatalf("faultRates[%d] = %v, want 0.16", ri, faultRates[ri])
	}
	toolstack.SetEnvTracking(true)
	defer toolstack.SetEnvTracking(false)
	cell, _, err := runFaultChurn(toolstack.ModeXL, faultRates[ri], Options{Seed: seed}.cellSeed(ri), 40)
	if err != nil {
		t.Fatalf("ext-faults seed %d xl rate %v: %v", seed, faultRates[ri], err)
	}
	if cell.recoveries == 0 || cell.avail >= 100 {
		t.Fatalf("cell saw %d failovers at %.1f%% availability, want a failover and lost VMs",
			cell.recoveries, cell.avail)
	}
	if _, violations := toolstack.FsckTracked(); len(violations) != 0 {
		t.Fatalf("fsck: %v", violations)
	}
}
