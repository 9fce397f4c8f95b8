package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a percentile before
// the benchmark reports it: fewer, and the value says more about the
// few largest samples than about the distribution.
const minBeyond = 10

// percentile returns the nearest-rank q-th percentile of xs (0 < q <
// 100) and whether it is reportable: at least minBeyond samples lie
// strictly after its rank. Failed operations enter xs as +Inf, so they
// sort beyond every limit. xs is not modified.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(q / 100 * float64(n)))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], n-rank >= minBeyond
}

// median returns the middle value of xs (the mean of the two middle
// values for even n), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sum adds xs.
func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ms and secs convert durations to the report's units.
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func secs(d time.Duration) float64 { return d.Seconds() }

// openLoopArrivals returns n due offsets, in order, of a Poisson
// process conditioned on n arrivals in [0, window): sorted uniform
// draws. Fixing n keeps the offered load identical across seeds while
// the gaps keep their Poisson burstiness.
func openLoopArrivals(uniform func() float64, n int, window time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(uniform() * float64(window))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// arrivalTiming is one open-loop request's timeline, all on the
// generator's clock: when it was due, when it actually went out (the
// connection was obtained) and when its result was complete.
type arrivalTiming struct {
	due, sent, done time.Time
}

// latency is measured from the due time, not the send time, so a
// stall that delays later sends is charged to the requests it delayed.
func (a arrivalTiming) latency() time.Duration { return a.done.Sub(a.due) }

// late is how far behind its schedule the generator sent the request.
func (a arrivalTiming) late() time.Duration {
	if a.sent.Before(a.due) {
		return 0
	}
	return a.sent.Sub(a.due)
}
