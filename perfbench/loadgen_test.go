package main

import (
	"context"
	"slices"
	"sync/atomic"
	"testing"
	"time"
)

func TestArrivalsReproduciblePerSeed(t *testing.T) {
	a := arrivals(42, 3, 20*time.Second)
	b := arrivals(42, 3, 20*time.Second)
	c := arrivals(43, 3, 20*time.Second)
	if !slices.Equal(a, b) {
		t.Fatal("the same seed gave two different schedules")
	}
	if slices.Equal(a, c) {
		t.Fatal("different seeds gave the same schedule")
	}
	if len(a) != 60 || len(c) != 60 {
		t.Fatalf("got %d and %d arrivals, want rate×window = 60 for every seed", len(a), len(c))
	}
	for i, d := range a {
		if d < 0 || d >= 20*time.Second || (i > 0 && d < a[i-1]) {
			t.Fatalf("arrival %d at %v is out of order or outside the window", i, d)
		}
	}
	// Seeds share the gap distribution and differ only in its order.
	ga, gc := expGaps(42, 60), expGaps(43, 60)
	if slices.Equal(ga, gc) {
		t.Fatal("different seeds gave the same gap order")
	}
	slices.Sort(ga)
	slices.Sort(gc)
	if !slices.Equal(ga, gc) {
		t.Error("seeds drew different gap distributions")
	}
}

// With one connection and a send that takes 30ms, a request due 10ms
// after the first waits for the connection; its latency counts from its
// due time, so it includes that wait.
func TestOpenLoopTimesFromDueTime(t *testing.T) {
	sched := []time.Duration{0, 10 * time.Millisecond}
	var inflight, peak atomic.Int32
	outs, late := openLoop(context.Background(), sched, 1, func(i int, start time.Time) outcome {
		if n := inflight.Add(1); n > peak.Load() {
			peak.Store(n)
		}
		o := outcome{sent: time.Since(start), ok: true}
		time.Sleep(30 * time.Millisecond)
		o.done = time.Since(start)
		inflight.Add(-1)
		return o
	})
	if peak.Load() != 1 {
		t.Errorf("%d requests in flight on one connection", peak.Load())
	}
	if outs[1].due != 10*time.Millisecond {
		t.Errorf("due = %v, want the scheduled 10ms", outs[1].due)
	}
	if lat := outs[1].latency(); lat < 50*time.Millisecond {
		t.Errorf("second request latency %v excludes its wait for the connection (want ≥ 50ms)", lat)
	}
	if outs[1].sent < 30*time.Millisecond {
		t.Errorf("second request sent at %v, before the connection was free", outs[1].sent)
	}
	for i, l := range late {
		if l < 0 || l > 20*time.Millisecond {
			t.Errorf("dispatch lateness %d = %v; the dispatcher must not wait for connections", i, l)
		}
	}
}
