package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed interval of a trace: either a call the benchmark
// made into one of the program's layers, or a span record read back from
// catiserve's /v1/trace/{id} tree. Times are nanoseconds; server records
// (microseconds on the wire) are scaled on the way in.
type span struct {
	Trace  string `json:"trace"`
	ID     string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
}

func (s span) end() int64 { return s.Start + s.Dur }

// recorder keeps the benchmark's own spans in memory until the run ends.
// A nil recorder records nothing, so the untraced path pays one nil check
// per call site. Spans are referred to by a small integer ref (0: none).
type recorder struct {
	mu    sync.Mutex
	epoch time.Time
	trace string
	spans []span
}

func newRecorder(trace string) *recorder {
	return &recorder{epoch: time.Now(), trace: trace}
}

// begin opens a span under parent (0 for a root) and returns its ref.
func (r *recorder) begin(parent int, name string) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	ref := len(r.spans) + 1
	s := span{Trace: r.trace, ID: fmt.Sprintf("b%d", ref), Name: name, Start: now, Dur: -1}
	if parent > 0 {
		s.Parent = fmt.Sprintf("b%d", parent)
	}
	r.spans = append(r.spans, s)
	return ref
}

// end closes the span begin returned.
func (r *recorder) end(ref int) {
	if r == nil || ref <= 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	s := &r.spans[ref-1]
	s.Dur = now - s.Start
}

// timed runs fn inside a span under parent; fn receives the span's ref
// so it can open children.
func (r *recorder) timed(parent int, name string, fn func(ref int)) {
	ref := r.begin(parent, name)
	fn(ref)
	r.end(ref)
}

// add records a root span measured elsewhere (a child process's clock),
// with start and duration in nanoseconds.
func (r *recorder) add(name string, start, dur int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := fmt.Sprintf("b%d", len(r.spans)+1)
	r.spans = append(r.spans, span{Trace: r.trace, ID: id, Name: name, Start: start, Dur: dur})
}

// closed returns a copy of every finished span.
func (r *recorder) closed() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.Dur >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its child spans cover. Overlapping children (stages
// fanned out across workers) count once, and a child running past its
// parent's end is clipped to the parent, so self time is never negative.
func selfTimes(spans []span) map[string]int64 {
	kids := make(map[string][]span)
	for _, s := range spans {
		if s.Parent != "" {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.Dur - covered(s.Start, s.end(), kids[s.ID])
	}
	return out
}

// covered is the length of [lo, hi) covered by the union of the kids'
// intervals.
func covered(lo, hi int64, kids []span) int64 {
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		a, b := max(k.Start, lo), min(k.end(), hi)
		if a < b {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
