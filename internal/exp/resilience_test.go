package exp

import (
	"strconv"
	"testing"
)

// resScale keeps the resilience sweep (25 cells) test-sized.
func resScale(workers int) Scale {
	return Scale{
		SimCycles: 1200,
		Workers:   workers,
	}
}

// TestResilienceTable: the fault-rate sweep must render a full table
// whose fault-free row delivers essentially everything, and whose
// faulted cells stay parseable delivered fractions (the retransmission
// layer recovering, not "err" markers).
func TestResilienceTable(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 25 faulted 8x8 simulations")
	}
	tab := Resilience(resScale(4))
	if len(tab.Rows) != len(resilienceRates) {
		t.Fatalf("got %d rows, want %d", len(tab.Rows), len(resilienceRates))
	}
	for ri, row := range tab.Rows {
		if len(row) != len(tab.Header) {
			t.Fatalf("row %d has %d cells, header has %d", ri, len(row), len(tab.Header))
		}
		// Columns: "fault rate", then (dlv, lat, retx) per scheme.
		for c := 1; c < len(row); c += 3 {
			dlv, err := strconv.ParseFloat(row[c], 64)
			if err != nil {
				t.Fatalf("row %d col %d: delivered fraction %q is not a number", ri, c, row[c])
			}
			// Slightly above 1 is legitimate: packets created during
			// warmup but received after it count only as receptions.
			if dlv < 0.5 || dlv > 1.1 {
				t.Fatalf("row %d col %d: delivered fraction %v out of range", ri, c, dlv)
			}
			if ri == 0 && dlv < 0.95 {
				t.Fatalf("fault-free row delivered only %v", dlv)
			}
			if ri == 0 && row[c+2] != "0" {
				t.Fatalf("fault-free row shows %s retransmits", row[c+2])
			}
		}
	}
	// The heaviest fault rate must show retransmission activity for
	// every scheme — the protocol engaging is the point of the table.
	last := tab.Rows[len(tab.Rows)-1]
	for c := 3; c < len(last); c += 3 {
		if last[c] == "0" {
			t.Fatalf("no retransmits at the top fault rate in column %s", tab.Header[c])
		}
	}
}

// TestResilienceParallelDeterminism: faulted cells derive their
// injector stream from the cell's own sweep seed, so the table is
// byte-identical at any worker count like every other figure.
func TestResilienceParallelDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the resilience sweep twice")
	}
	serial := renderAll([]*Table{Resilience(resScale(1))})
	if got := renderAll([]*Table{Resilience(resScale(4))}); got != serial {
		t.Fatalf("resilience output differs at workers=4:\n%s", diffLine(serial, got))
	}
}
