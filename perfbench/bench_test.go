package main

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileReportsOnlyWithTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{1000, 99, 990, true},  // ranks 991..1000 lie beyond: exactly ten
		{999, 99, 990, false},  // only nine beyond
		{100, 90, 90, true},    // ten beyond
		{99, 90, 90, false},    // nine beyond
		{20, 50, 10, true},     // the median of twenty
		{5, 50, 3, false},      // two beyond
		{2000, 99, 1980, true}, // twenty beyond
	} {
		got, ok := percentile(seq(tc.n), tc.q)
		if got != tc.want || ok != tc.ok {
			t.Errorf("p%g of 1..%d = %g, %v; want %g, %v", tc.q, tc.n, got, ok, tc.want, tc.ok)
		}
	}
	if _, ok := percentile(nil, 50); ok {
		t.Error("a percentile of no samples must not be reportable")
	}
}

func TestPercentileCountsFailuresBeyondEveryLimit(t *testing.T) {
	xs := seq(1000)
	for i := 0; i < 20; i++ {
		xs[i] = math.Inf(1) // twenty failed requests
	}
	if got, _ := percentile(xs, 99); !math.IsInf(got, 1) {
		t.Errorf("p99 with 2%% failures = %g, want +Inf", got)
	}
	if got, _ := percentile(xs, 50); got != 520 {
		t.Errorf("p50 = %g, want 520: failures shift the median up", got)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("median odd = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median even = %g", got)
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	parent := Span{Start: 0, End: 100}
	// Two workers: their runs overlap from 30 to 50. A third child
	// runs past the parent's end and is clipped to it.
	kids := []Span{{Start: 10, End: 50}, {Start: 30, End: 70}, {Start: 90, End: 120}}
	if got := selfTime(parent, kids); got != 30 {
		t.Errorf("self time = %d, want 30 (100 - |[10,70] u [90,100]|)", got)
	}
	// Summing child durations instead of their union would go negative.
	summed := parent.dur()
	for _, k := range kids {
		summed -= k.dur()
	}
	if summed >= 0 {
		t.Fatalf("test case does not exercise overlap: summed self = %d", summed)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("self time without children = %d, want 100", got)
	}
}

func TestAttributionAddsUpToTheRoot(t *testing.T) {
	spans := []Span{
		{ID: 1, Name: "plan.pass", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "noc.run", Start: 10, End: 50},
		{ID: 3, Parent: 1, Name: "noc.run", Start: 30, End: 70},
		{ID: 4, Parent: 3, Name: "checkpoint.save", Start: 40, End: 60},
	}
	byLayer, err := checkRootSum(spans, spans[0])
	if err != nil {
		t.Fatal(err)
	}
	// 10..30 one run; 30..40 two runs; 40..50 run 2 and the save share;
	// 50..60 the save alone (run 3 has an active child); 60..70 run 3.
	want := map[string]float64{"plan": 40e-9, "noc": 45e-9, "checkpoint": 15e-9}
	for l, w := range want {
		if math.Abs(byLayer[l]-w) > 1e-15 {
			t.Errorf("layer %s = %g, want %g", l, byLayer[l], w)
		}
	}
	// A child escaping its root breaks the sum.
	spans = append(spans, Span{ID: 5, Parent: 1, Name: "noc.run", Start: 90, End: 150})
	if _, err := checkRootSum(spans, spans[0]); err == nil {
		t.Error("a span outside its root must fail the sum check")
	}
}

func TestOpenLoopLatencyIsMeasuredFromTheDueTime(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	// A stall holds the generator until t=40ms. The request due at
	// 10ms goes out at 40ms and completes at 45ms: its user waited
	// 35ms, of which 30ms was the generator running late.
	a := arrivalTiming{due: at(10), sent: at(40), done: at(45)}
	if a.latency() != 35*time.Millisecond {
		t.Errorf("latency = %v, want 35ms (from the due time, not the send time)", a.latency())
	}
	if a.late() != 30*time.Millisecond {
		t.Errorf("lateness = %v, want 30ms", a.late())
	}
	if on := (arrivalTiming{due: at(10), sent: at(10), done: at(12)}); on.late() != 0 {
		t.Errorf("on-time request reported %v late", on.late())
	}
}

func TestOpenLoopArrivalsAreSeededSortedAndInsideTheWindow(t *testing.T) {
	window := 20 * time.Second
	gen := func(seed int64) []time.Duration {
		return openLoopArrivals(rand.New(rand.NewSource(seed)).Float64, 500, window)
	}
	a, b := gen(7), gen(7)
	if len(a) != 500 {
		t.Fatalf("got %d arrivals, want 500", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("the same seed gave different arrivals")
		}
		if a[i] < 0 || a[i] >= window || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d = %v: not sorted inside [0, %v)", i, a[i], window)
		}
	}
	if c := gen(8); c[0] == a[0] && c[1] == a[1] {
		t.Error("different seeds gave the same arrivals")
	}
}

func TestSeecdSpecsAreSeededAndDistinct(t *testing.T) {
	build := func(seed int64) []*seecdSpec {
		var out []*seecdSpec
		for i := 0; i < 30; i++ {
			sp, err := makeSpec(i, seed)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, sp)
		}
		return out
	}
	a, b := build(3), build(3)
	keys := map[string]bool{}
	for i := range a {
		if !bytes.Equal(a[i].raw, b[i].raw) {
			t.Fatalf("spec %d differs between two builds at the same seed", i)
		}
		for _, k := range a[i].keys {
			if keys[k] {
				t.Fatalf("spec %d repeats result key %s", i, k)
			}
			keys[k] = true
		}
	}
}
