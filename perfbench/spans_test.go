package main

import (
	"strings"
	"testing"
)

// A hand-built tree: the parent spans [0,100); its children overlap each
// other and one runs past the parent's end. Covered time is the union
// [10,50) ∪ [90,100) = 50, so the parent's self time is 50. The
// grandchild sits inside its own parent and does not count against the
// root a second time.
func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	spans := []span{
		{ID: "root", Name: "serve.request", Start: 0, Dur: 100},
		{ID: "a", Parent: "root", Name: "serve.cache-probe", Start: 10, Dur: 20},
		{ID: "b", Parent: "root", Name: "serve.batch", Start: 20, Dur: 30},
		{ID: "c", Parent: "root", Name: "late", Start: 90, Dur: 30},
		{ID: "g", Parent: "b", Name: "predict", Start: 25, Dur: 20},
		{ID: "other", Parent: "elsewhere", Name: "x", Start: 0, Dur: 5},
	}
	self := selfTimes(spans)
	for id, want := range map[string]int64{"root": 50, "a": 20, "b": 10, "c": 30, "g": 20, "other": 5} {
		if self[id] != want {
			t.Errorf("self(%s) = %d, want %d", id, self[id], want)
		}
	}
}

func TestSelfTimeAdjacentAndContainedChildren(t *testing.T) {
	spans := []span{
		{ID: "p", Start: 100, Dur: 50},
		{ID: "k1", Parent: "p", Start: 100, Dur: 10},
		{ID: "k2", Parent: "p", Start: 110, Dur: 10}, // touches k1
		{ID: "k3", Parent: "p", Start: 112, Dur: 3},  // inside k2
		{ID: "k4", Parent: "p", Start: 50, Dur: 10},  // wholly before p
	}
	if got := selfTimes(spans)["p"]; got != 30 {
		t.Errorf("self(p) = %d, want 30", got)
	}
}

func TestRecorderNestsAndSkipsOpenSpans(t *testing.T) {
	r := newRecorder("t")
	r.timed(0, "outer", func(ref int) {
		r.timed(ref, "inner", func(int) {})
		r.begin(ref, "never-ended")
	})
	got := r.closed()
	if len(got) != 2 {
		t.Fatalf("closed() = %d spans, want 2 (open spans excluded): %+v", len(got), got)
	}
	outer, inner := got[0], got[1]
	if outer.Name != "outer" || inner.Name != "inner" || inner.Parent != outer.ID || outer.Parent != "" {
		t.Errorf("bad nesting: %+v", got)
	}
	if inner.Start < outer.Start || inner.end() > outer.end() {
		t.Errorf("inner %+v not inside outer %+v", inner, outer)
	}
	var nilRec *recorder
	nilRec.timed(0, "free", func(ref int) {
		if ref != 0 {
			t.Error("a nil recorder must hand out no span refs")
		}
	})
}

func TestParseProm(t *testing.T) {
	text := `# HELP cati_serve_batch_size Requests per batch.
# TYPE cati_serve_batch_size histogram
cati_serve_batch_size_bucket{le="1"} 3
cati_serve_batch_size_sum 7
cati_serve_batch_size_count 5 # {trace_id="abc"} 1
cati_serve_rejected_total{reason="queue_full"} 2
cati_serve_rejected_total{reason="queue_timeout"} 1
`
	before, err := parseProm(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	after, err := parseProm(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := delta(before, after, "cati_serve_rejected_total"); got != 3 {
		t.Errorf("rejected delta = %v, want 3 (summed over reasons)", got)
	}
	if got := histMean(before, after, "cati_serve_batch_size"); got != 1.4 {
		t.Errorf("batch size mean = %v, want 1.4", got)
	}
}
