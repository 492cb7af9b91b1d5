package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"repro/internal/classify"
	"repro/internal/core"
	"repro/internal/ctypes"
	"repro/internal/elfx"
	"repro/internal/gemm"
	"repro/internal/nn"
	"repro/internal/par"
	"repro/internal/vareco"
	"repro/internal/vuc"
)

// walked is one binary taken through the pipeline layer by layer.
type walked struct {
	samples [][]float32
	preds   []classify.VUCPrediction
	vars    []core.InferredVar
	// useful and run count node×VUC evaluations: those the voted answers
	// read, and those the predict stage ran.
	useful, run int
}

// walk mirrors core's staged pipeline — recover, extract, embed, predict,
// vote — by calling each layer's public function in the same order with
// the same arguments, and records a span around every call under parent.
// The caller checks the result against core.InferBinary, so the spans
// describe the real pipeline's work.
func walk(ctx context.Context, cati *core.CATI, in input, rec *recorder, parent int) (walked, error) {
	p := cati.Pipeline
	workers := par.Workers(p.Cfg.Workers)
	var (
		w   walked
		bin *elfx.Binary
		rv  *vareco.Recovery
		vs  []vuc.VUC
		err error
	)
	rec.timed(parent, "elfx", func(int) { bin, err = elfx.Read(in.image) })
	if err != nil {
		return w, fmt.Errorf("elfx: %w", err)
	}
	coreRef := rec.begin(parent, "core")
	defer rec.end(coreRef)
	rec.timed(coreRef, "vareco", func(int) { rv, err = vareco.RecoverOpts(bin, vareco.Options{Dataflow: true}) })
	if err != nil {
		return w, fmt.Errorf("vareco: %w", err)
	}
	rec.timed(coreRef, "vuc", func(int) { vs = vuc.Extract(rv, vuc.Config{Window: p.Cfg.WithDefaults().Window}) })
	if len(vs) == 0 {
		return w, nil
	}
	w.samples = make([][]float32, len(vs))
	rec.timed(coreRef, "embed", func(int) {
		err = par.ForEachCtx(ctx, len(vs), workers, func(i int) { w.samples[i] = p.EmbedWindow(vs[i].Tokens) })
	})
	if err != nil {
		return w, fmt.Errorf("embed: %w", err)
	}
	rec.timed(coreRef, "predict", func(int) { w.preds, err = p.PredictVUCsCtx(ctx, w.samples) })
	if err != nil {
		return w, fmt.Errorf("predict: %w", err)
	}
	rec.timed(coreRef, "vote", func(int) { w.vars, w.useful, w.run = vote(cati, rv, vs, w.preds) })
	return w, nil
}

// vote groups predictions per variable and votes, as core does, and
// counts the node×VUC evaluations the answers depend on.
func vote(cati *core.CATI, rv *vareco.Recovery, vs []vuc.VUC, preds []classify.VUCPrediction) (vars []core.InferredVar, useful, run int) {
	groups := make(map[vuc.VarKey][]classify.VUCPrediction)
	for i := range vs {
		groups[vs[i].Var] = append(groups[vs[i].Var], preds[i])
	}
	sizeOf := make(map[vuc.VarKey]int)
	for _, f := range rv.Funcs {
		for _, v := range f.Vars {
			sizeOf[vuc.VarKey{FuncLow: f.Low, Slot: v.Slot}] = v.Size
		}
	}
	for _, g := range rv.Globals {
		sizeOf[vuc.GlobalKey(g.Addr)] = g.Size
	}
	have := make(map[ctypes.Stage]bool)
	for s := range cati.Pipeline.Stages {
		have[s] = true
	}
	vars = make([]core.InferredVar, 0, len(groups))
	for key, g := range groups {
		vp := classify.VoteVariable(g, cati.Clamp)
		useful += usefulEvals(vp, len(g), have)
		run += len(g) * len(have)
		vars = append(vars, core.InferredVar{
			FuncLow: key.FuncLow, Slot: key.Slot, Global: key.Global,
			Size: sizeOf[key], NumVUCs: len(g), Class: vp.Class,
		})
	}
	sort.Slice(vars, func(i, j int) bool {
		if vars[i].FuncLow != vars[j].FuncLow {
			return vars[i].FuncLow < vars[j].FuncLow
		}
		return vars[i].Slot < vars[j].Slot
	})
	return vars, useful, run
}

// usefulEvals counts the node×VUC evaluations a variable's voted class
// depends on, for a variable with n VUCs: Stage1 on every VUC, the Stage2
// network of the voted branch, and the leaf network the voted Stage2-2
// label leads to, if any. The pointer branch (Stage2-1) has no leaf.
func usefulEvals(vp classify.VarPrediction, n int, have map[ctypes.Stage]bool) int {
	if !have[ctypes.Stage1] {
		return 0
	}
	u := n
	if vp.StageLabels[ctypes.Stage1] == 0 {
		if have[ctypes.Stage21] {
			u += n
		}
		return u
	}
	if !have[ctypes.Stage22] {
		return u
	}
	u += n
	var leaf ctypes.Stage
	switch vp.StageLabels[ctypes.Stage22] {
	case 0, 1: // struct, bool: decided at Stage2-2
		return u
	case 2:
		leaf = ctypes.Stage31
	case 3:
		leaf = ctypes.Stage32
	default:
		leaf = ctypes.Stage33
	}
	if have[leaf] {
		u += n
	}
	return u
}

// nodeName is a stage network's metric name ("stage2-1").
func nodeName(s ctypes.Stage) string { return strings.ToLower(s.String()) }

// nodeFLOPs counts the multiply-adds (×2) one VUC costs in a stage
// network, from its layer shapes; ReLU, pooling and softmax are left out.
func nodeFLOPs(net *nn.Network, seqLen int) float64 {
	l, f := seqLen, 0
	for _, layer := range net.Layers {
		switch t := layer.(type) {
		case *nn.Conv1D:
			f += 2 * l * t.K * t.In * t.Out
		case *nn.MaxPool1D:
			l /= 2
		case *nn.Dense:
			f += 2 * t.In * t.Out
		}
	}
	return float64(f)
}

// layerRun accumulates the traced layer walk over a set of inputs.
type layerRun struct {
	bins, vucs, vars int
	useful, run      int
	nodeWall         map[ctypes.Stage]time.Duration
	nodeVUCs         map[ctypes.Stage]int
	rt               runtimeDelta
	spans            []span
}

// walkLayers takes each input through walk (checking its records against
// the reference), then runs every stage network alone on the same
// samples, recording spans throughout.
func walkLayers(ctx context.Context, cati *core.CATI, ins []input, refs []reference) (*layerRun, error) {
	p := cati.Pipeline
	seqLen, instDim := p.Cfg.SeqLen(), p.Cfg.InstDim()
	workers := par.Workers(p.Cfg.Workers)
	rec := newRecorder("walk")
	lr := &layerRun{nodeWall: map[ctypes.Stage]time.Duration{}, nodeVUCs: map[ctypes.Stage]int{}}
	all := make([][][]float32, len(ins))

	before := readRuntime()
	for i, in := range ins {
		var w walked
		var err error
		rec.timed(0, "bin", func(ref int) { w, err = walk(ctx, cati, in, rec, ref) })
		if err != nil {
			return nil, fmt.Errorf("layer walk of %s: %w", in.name, err)
		}
		if !bytes.Equal(recordsJSON(w.vars), refs[i].records) {
			return nil, fmt.Errorf("layer walk of %s disagrees with core.InferBinary", in.name)
		}
		lr.bins++
		lr.vucs += len(w.samples)
		lr.vars += len(w.vars)
		lr.useful += w.useful
		lr.run += w.run
		all[i] = w.samples
	}
	lr.rt = readRuntime().since(before)

	// Each tree node alone, per binary as predict runs them, so the sum of
	// node walls against the predict wall shows what the stage fan-out
	// costs or saves.
	for i := range ins {
		if len(all[i]) == 0 {
			continue
		}
		for _, s := range ctypes.AllStages() {
			net := p.Stages[s]
			if net == nil {
				continue
			}
			var err error
			t0 := time.Now()
			rec.timed(0, "nn."+nodeName(s), func(int) {
				_, err = nn.PredictNCtx(ctx, net, all[i], seqLen, instDim, workers)
			})
			if err != nil {
				return nil, fmt.Errorf("node %s: %w", s, err)
			}
			lr.nodeWall[s] += time.Since(t0)
			lr.nodeVUCs[s] += len(all[i])
		}
	}
	lr.spans = rec.closed()
	return lr, nil
}

// spanTotals sums span durations by name.
func spanTotals(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for _, s := range spans {
		out[s.Name] += time.Duration(s.Dur)
	}
	return out
}

// metrics turns the walk into per-layer metrics.
func (lr *layerRun) metrics(cati *core.CATI, m metricSet) {
	tot := spanTotals(lr.spans)
	kvuc := float64(lr.vucs) / 1000
	m.add("elfx.read_us_per_bin", "us", us(tot["elfx"])/float64(lr.bins))
	m.add("vareco.recover_ms_per_bin", "ms", ms(tot["vareco"])/float64(lr.bins))
	m.add("vuc.extract_us_per_vuc", "us", us(tot["vuc"])/float64(lr.vucs))
	m.add("embed.us_per_vuc", "us", us(tot["embed"])/float64(lr.vucs))
	m.add("predict.ms_per_kvuc", "ms", ms(tot["predict"])/kvuc)
	m.add("predict.share", "ratio", tot["predict"].Seconds()/tot["core"].Seconds())
	m.add("vote.us_per_var", "us", us(tot["vote"])/float64(lr.vars))
	m.add("core.ms_per_kvuc", "ms", ms(tot["core"])/kvuc)
	var nodeSum time.Duration
	seqLen := cati.Pipeline.Cfg.SeqLen()
	for _, s := range ctypes.AllStages() {
		wall := lr.nodeWall[s]
		nodeSum += wall
		name := "nn." + nodeName(s)
		if wall == 0 {
			continue // absent network: reported missing by the caller
		}
		m.add(name+".ms_per_kvuc", "ms", ms(wall)/(float64(lr.nodeVUCs[s])/1000))
		flops := nodeFLOPs(cati.Pipeline.Stages[s], seqLen) * float64(lr.nodeVUCs[s])
		m.add(name+".gflops", "GFLOP/s", flops/wall.Seconds()/1e9)
	}
	m.add("predict.fanout_ratio", "ratio", nodeSum.Seconds()/tot["predict"].Seconds())
	m.add("nn.useful_ratio", "ratio", float64(lr.useful)/float64(lr.run))
	m.add("runtime.mallocs_per_vuc", "count", float64(lr.rt.mallocs)/float64(lr.vucs))
	m.add("runtime.alloc_kb_per_vuc", "KiB", float64(lr.rt.allocBytes)/1024/float64(lr.vucs))
	m.add("runtime.gc_cpu_share", "ratio", lr.rt.gcShare())
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runtimeDelta is the change in Go runtime/metrics counters over a span
// of work.
type runtimeDelta struct {
	mallocs, allocBytes uint64
	gcCPU, totalCPU     float64 // totalCPU excludes idle time
}

var runtimeSamples = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

// readRuntime samples the counters. The CPU classes are only brought up
// to date at the end of a GC cycle, so it runs one first; its cost lands
// in the measured span, once per end.
func readRuntime() runtimeDelta {
	runtime.GC()
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return runtimeDelta{
		mallocs:    s[0].Value.Uint64(),
		allocBytes: s[1].Value.Uint64(),
		gcCPU:      s[2].Value.Float64(),
		totalCPU:   s[3].Value.Float64() - s[4].Value.Float64(),
	}
}

func (d runtimeDelta) since(base runtimeDelta) runtimeDelta {
	return runtimeDelta{
		mallocs:    d.mallocs - base.mallocs,
		allocBytes: d.allocBytes - base.allocBytes,
		gcCPU:      d.gcCPU - base.gcCPU,
		totalCPU:   d.totalCPU - base.totalCPU,
	}
}

// gcShare is the share of the process's busy CPU time spent in the
// garbage collector.
func (d runtimeDelta) gcShare() float64 {
	if d.totalCPU <= 0 {
		return 0
	}
	return d.gcCPU / d.totalCPU
}

// The fast path's GEMM shapes (nn/fastpath.go): predict runs 256-sample
// chunks and materializes at most 512 im2col rows per conv GEMM call.
const (
	fastChunk    = 256
	fastConvRows = 512
)

// gemmShape is one SGEMM call shape of a stage network's forward pass.
type gemmShape struct {
	name    string
	m, n, k int
	transB  bool
}

// gemmShapes lists the SGEMM calls one 256-sample chunk makes through net.
func gemmShapes(net *nn.Network, seqLen int) []gemmShape {
	var out []gemmShape
	l, convs, denses := seqLen, 0, 0
	for _, layer := range net.Layers {
		switch t := layer.(type) {
		case *nn.Conv1D:
			convs++
			out = append(out, gemmShape{fmt.Sprintf("conv%d", convs), min(fastChunk*l, fastConvRows), t.Out, t.K * t.In, true})
		case *nn.MaxPool1D:
			l /= 2
		case *nn.Dense:
			denses++
			out = append(out, gemmShape{fmt.Sprintf("dense%d", denses), fastChunk, t.Out, t.In, false})
		}
	}
	return out
}

// gemmCeiling measures single-thread SGEMM throughput at one shape on the
// active backend: the median of five trials of at least 40ms each.
func gemmCeiling(sh gemmShape) float64 {
	r := rand.New(rand.NewPCG(1, 2))
	fill := func(n int) []float32 {
		x := make([]float32, n)
		for i := range x {
			x[i] = r.Float32() - 0.5
		}
		return x
	}
	a, b, c := fill(sh.m*sh.k), fill(sh.k*sh.n), make([]float32, sh.m*sh.n)
	ldb := sh.n
	if sh.transB {
		ldb = sh.k
	}
	ar := &gemm.Arena{}
	call := func() { gemm.SGEMM(sh.m, sh.n, sh.k, a, sh.k, b, ldb, sh.transB, c, sh.n, ar) }
	call() // warm the kernel and the arena
	flops := 2 * float64(sh.m) * float64(sh.n) * float64(sh.k)
	var trials []float64
	for t := 0; t < 5; t++ {
		reps := 0
		t0 := time.Now()
		for time.Since(t0) < 40*time.Millisecond {
			call()
			reps++
		}
		trials = append(trials, flops*float64(reps)/time.Since(t0).Seconds()/1e9)
	}
	return median(trials)
}

// gemmMetrics reports the SGEMM ceiling at each of Stage1's call shapes.
func gemmMetrics(cati *core.CATI, m metricSet) {
	net := cati.Pipeline.Stages[ctypes.Stage1]
	for _, sh := range gemmShapes(net, cati.Pipeline.Cfg.SeqLen()) {
		m.add("gemm."+sh.name+".ceiling_gflops", "GFLOP/s", gemmCeiling(sh))
	}
}
