package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ q, want float64 }{
		{0.5, 5}, {0.9, 9}, {0.91, 10}, {0.99, 10}, {1, 10}, {0.01, 1},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of an empty sample must be NaN, not a number that passes for a measurement")
	}
}

// The expected values are Python's statistics.quantiles(xs, n=4) and
// statistics.median(xs), which is how the spreads of the benchmark's
// JSON lines are judged.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{3.5, 1.25}, 0.6875, 2.375, 4.0625},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 30, 60, 90},
		{[]float64{0.9, 1.1, 1.0, 1.3, 0.8, 1.2, 1.05, 0.95, 1.15, 1.0}, 0.9375, 1.025, 1.1625},
	} {
		q1, q3 := quartiles(c.xs)
		med := median(c.xs)
		if !near(q1, c.q1) || !near(med, c.med) || !near(q3, c.q3) {
			t.Errorf("%v: got q1=%v median=%v q3=%v, want %v %v %v", c.xs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestRelIQR(t *testing.T) {
	xs := []float64{0.9, 1.1, 1.0, 1.3, 0.8, 1.2, 1.05, 0.95, 1.15, 1.0}
	if got, want := relIQR(xs), (1.1625-0.9375)/1.025; !near(got, want) {
		t.Errorf("relIQR = %v, want %v", got, want)
	}
	if got := relIQR([]float64{2, 2, 2, 2}); got != 0 {
		t.Errorf("relIQR of a constant sample = %v, want 0", got)
	}
	// The input must not be reordered.
	in := []float64{3, 1, 2}
	relIQR(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("relIQR sorted its input: %v", in)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

// A window of 1000 requests at 1ms, except that the second tenth of the
// window (one slice in ten) stalls at 50ms: the whole-window p90 would
// be the stall's, the sliced p90 stays the steady 1ms. A window too small
// to slice uses plain percentiles.
func TestSlicedPercentilesDiscountAStalledSlice(t *testing.T) {
	var lat, at []float64
	for i := 0; i < 1000; i++ {
		a := float64(i) / 1000
		v := 1.0
		if a >= 0.1 && a < 0.2 {
			v = 50
		}
		lat, at = append(lat, v), append(at, a)
	}
	if p50, p90 := slicedPercentiles(lat, at); p50 != 1 || p90 != 1 {
		t.Errorf("sliced p50, p90 = %v, %v; want 1, 1", p50, p90)
	}
	small := []float64{5, 1, 4, 2, 3, 9, 8, 7, 6, 10}
	if p50, p90 := slicedPercentiles(small, make([]float64, len(small))); p50 != 5 || p90 != 9 {
		t.Errorf("unsliced p50, p90 = %v, %v; want 5, 9", p50, p90)
	}
}
