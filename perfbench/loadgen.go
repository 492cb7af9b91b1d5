package main

import (
	"context"
	"math"
	"math/rand/v2"
	"sync"
	"time"
)

// arrivals returns the due offsets of an open-loop Poisson arrival
// process at rate requests per second over window d, drawn from seed. The
// count is fixed at round(rate·d), and the gaps between arrivals are the
// exponential distribution's quantiles at (i+½)/n, shuffled by the seed
// and scaled to fill the window. Every seed thus offers the same load with
// the same spread of short and long gaps — stratified rather than sampled
// — and seeds differ only in where the bursts fall, which keeps the tail
// percentiles of a short window comparable from seed to seed.
func arrivals(seed uint64, rate float64, d time.Duration) []time.Duration {
	gaps := expGaps(seed, int(rate*d.Seconds()+0.5))
	total := 0.0
	for _, g := range gaps {
		total += g
	}
	out := make([]time.Duration, len(gaps))
	t := 0.0
	for i, g := range gaps {
		out[i] = time.Duration(t / total * float64(d))
		t += g
	}
	return out
}

// expGaps returns the unit exponential distribution's n quantiles at
// (i+½)/n in an order shuffled by seed.
func expGaps(seed uint64, n int) []float64 {
	gaps := make([]float64, n)
	for i := range gaps {
		gaps[i] = -math.Log(1 - (float64(i)+0.5)/float64(n))
	}
	r := rand.New(rand.NewPCG(seed, 0xa5a5_5a5a_0f0f_f0f0))
	r.Shuffle(n, func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })
	return gaps
}

// outcome is one open-loop request as the generator saw it. Times are
// offsets from the start of the timed window.
type outcome struct {
	due, sent, done time.Duration
	sentAt          time.Time // wall clock at send, to line up with server spans
	// ok is false for a transport error, a non-200 status, or a response
	// whose records differ from the in-process reference.
	ok      bool
	status  int
	vucs    int
	traceID string
	err     string
}

// latency is the request's time from when it was due, so a stall that
// delays later sends is charged to them.
func (o outcome) latency() time.Duration { return o.done - o.due }

// openLoop sends request i at sched[i] regardless of how earlier ones
// fare, over at most conns concurrent requests. A request that is due
// while every connection is busy waits for one, and that wait counts in
// its latency. It returns the outcomes and the generator's own lateness
// per request: how long after its due time the dispatcher handed it out.
func openLoop(ctx context.Context, sched []time.Duration, conns int, send func(i int, start time.Time) outcome) ([]outcome, []time.Duration) {
	out := make([]outcome, len(sched))
	late := make([]time.Duration, len(sched))
	jobs := make(chan int, len(sched)) // sized to the number of sends: dispatch never blocks
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				o := send(i, start)
				o.due = sched[i]
				out[i] = o
			}
		}()
	}
	timer := time.NewTimer(0)
	<-timer.C
dispatch:
	for i, due := range sched {
		if wait := time.Until(start.Add(due)); wait > 0 {
			timer.Reset(wait)
			select {
			case <-timer.C:
			case <-ctx.Done():
				break dispatch
			}
		}
		late[i] = time.Since(start) - due
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	return out, late
}
