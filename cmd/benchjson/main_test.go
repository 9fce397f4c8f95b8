package main

import (
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// threeSamples is `go test -bench -count 3` output for one benchmark:
// the median (104) is neither the last sample (100) nor the mean.
const threeSamples = `goos: linux
pkg: seec/internal/noc
cpu: Test CPU
BenchmarkStep/rate=0.20-2   	   10000	    300 ns/op	       0 B/op	       0 allocs/op
BenchmarkStep/rate=0.20-2   	   10000	    104 ns/op	       0 B/op	       0 allocs/op
BenchmarkStep/rate=0.20-2   	   10000	    100 ns/op	       0 B/op	       0 allocs/op
PASS
`

// TestParseKeepsEverySample: repeated samples of one benchmark fold
// into one entry that keeps them all and records their median, min,
// max and count.
func TestParseKeepsEverySample(t *testing.T) {
	doc, err := parse(strings.NewReader(threeSamples))
	if err != nil {
		t.Fatal(err)
	}
	r, ok := doc.Benchmarks["seec/internal/noc.BenchmarkStep/rate=0.20"]
	if !ok || len(doc.Benchmarks) != 1 {
		t.Fatalf("benchmarks = %+v", doc.Benchmarks)
	}
	if r.NsOp != 104 || r.NsOpMin != 100 || r.NsOpMax != 300 || r.N != 3 {
		t.Errorf("median/min/max/n = %v/%v/%v/%d, want 104/100/300/3", r.NsOp, r.NsOpMin, r.NsOpMax, r.N)
	}
	if !reflect.DeepEqual(r.Samples, []float64{300, 104, 100}) {
		t.Errorf("samples = %v", r.Samples)
	}
	if r.GOMAXPROCS != 2 || doc.Meta.CPU != "Test CPU" {
		t.Errorf("gomaxprocs=%d cpu=%q", r.GOMAXPROCS, doc.Meta.CPU)
	}
}

// TestCompareUsesMedian: -compare and -fail-above judge the median, not
// the last sample (which would read as no change here) nor the outlier.
func TestCompareUsesMedian(t *testing.T) {
	old := filepath.Join(t.TempDir(), "old.json")
	rec := `{"meta":{},"benchmarks":{"seec/internal/noc.BenchmarkStep/rate=0.20":{"ns_op":100,"iters":1,"gomaxprocs":2}}}`
	if err := os.WriteFile(old, []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	fresh, err := parse(strings.NewReader(threeSamples))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		failAbove float64
		regressed bool
	}{{10, false}, {3, true}} {
		regressed, err := printDiff(io.Discard, old, fresh, tc.failAbove)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(regressed) > 0; got != tc.regressed {
			t.Errorf("-fail-above %v: regressed=%v (%v), want %v", tc.failAbove, got, regressed, tc.regressed)
		}
	}
}
