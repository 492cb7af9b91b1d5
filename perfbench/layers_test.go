package main

import (
	"testing"

	"repro/internal/classify"
	"repro/internal/ctypes"
	"repro/internal/nn"
)

// pred builds one VUC's stage probabilities from the argmax label it
// should have at each stage.
func pred(labels map[ctypes.Stage]int) classify.VUCPrediction {
	p := classify.VUCPrediction{StageProbs: map[ctypes.Stage][]float32{}}
	for _, s := range ctypes.AllStages() {
		row := make([]float32, ctypes.StageArity(s))
		row[labels[s]] = 0.8
		p.StageProbs[s] = row
	}
	return p
}

func allStages() map[ctypes.Stage]bool {
	have := map[ctypes.Stage]bool{}
	for _, s := range ctypes.AllStages() {
		have[s] = true
	}
	return have
}

// A hand-built vote over three variables: a pointer (reads Stage1 and
// Stage2-1), a struct (Stage1 and Stage2-2 only) and an int-family
// variable (Stage1, Stage2-2 and the Stage3-3 leaf). Of 6 nodes × 9 VUCs
// run, 2·2 + 2·3 + 3·4 = 22 evaluations are read.
func TestUsefulRatioOnHandBuiltVote(t *testing.T) {
	vars := []struct {
		n      int
		labels map[ctypes.Stage]int
		want   ctypes.Class
		useful int
	}{
		{2, map[ctypes.Stage]int{ctypes.Stage1: 0, ctypes.Stage21: 0}, 0, 4},
		{3, map[ctypes.Stage]int{ctypes.Stage1: 1, ctypes.Stage22: 0}, ctypes.ClassStruct, 6},
		{4, map[ctypes.Stage]int{ctypes.Stage1: 1, ctypes.Stage22: 4}, 0, 12},
	}
	have := allStages()
	useful, run := 0, 0
	for _, v := range vars {
		preds := make([]classify.VUCPrediction, v.n)
		for i := range preds {
			preds[i] = pred(v.labels)
		}
		vp := classify.VoteVariable(preds, classify.DefaultClamp)
		if v.want != 0 && vp.Class != v.want {
			t.Fatalf("vote gave %v, want %v", vp.Class, v.want)
		}
		u := usefulEvals(vp, v.n, have)
		if u != v.useful {
			t.Errorf("labels %v: useful = %d, want %d", v.labels, u, v.useful)
		}
		useful += u
		run += v.n * len(have)
	}
	if got, want := float64(useful)/float64(run), 22.0/54.0; got != want {
		t.Errorf("useful ratio = %v, want %v", got, want)
	}
}

func TestUsefulEvalsWithoutLeafNetwork(t *testing.T) {
	have := allStages()
	delete(have, ctypes.Stage32)
	vp := classify.VarPrediction{StageLabels: map[ctypes.Stage]int{ctypes.Stage1: 1, ctypes.Stage22: 3}}
	if got := usefulEvals(vp, 5, have); got != 10 {
		t.Errorf("useful = %d, want 10: the missing Stage3-2 leaf is never evaluated", got)
	}
}

// The paper architecture costs ~1.18 MFLOP per VUC per node; Stage1's
// exact count, layer by layer.
func TestNodeFLOPsAndGEMMShapes(t *testing.T) {
	net := nn.NewCATICNN(21, 96, 2, 1)
	want := 2*21*3*96*32 + 2*10*3*32*64 + 2*320*1024 + 2*1024*2
	if got := nodeFLOPs(net, 21); got != float64(want) {
		t.Errorf("nodeFLOPs = %v, want %d", got, want)
	}
	shapes := gemmShapes(net, 21)
	wantShapes := []gemmShape{
		{"conv1", 512, 32, 288, true},
		{"conv2", 512, 64, 96, true},
		{"dense1", 256, 1024, 320, false},
		{"dense2", 256, 2, 1024, false},
	}
	if len(shapes) != len(wantShapes) {
		t.Fatalf("shapes = %+v, want %+v", shapes, wantShapes)
	}
	for i := range shapes {
		if shapes[i] != wantShapes[i] {
			t.Errorf("shape %d = %+v, want %+v", i, shapes[i], wantShapes[i])
		}
	}
}
