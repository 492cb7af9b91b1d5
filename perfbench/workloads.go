package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ctypes"
)

// setupRuns is how many times a run sets up; setup_s is their median.
const setupRuns = 3

// probeInputs is how many workload inputs the model check predicts over.
const probeInputs = 3

// walkInputs is how many workload inputs the traced layer walk takes (on
// corpus they include the 40-function binary).
const walkInputs = 8

// Open-loop generator validity: a run whose dispatcher fell further
// behind its schedule than this measured the generator, not the program.
const (
	maxLateP99 = 20 * time.Millisecond
	maxLate    = time.Second
)

// workload is one named traffic shape.
type workload struct {
	// rate is the open-loop arrival rate in requests per second against a
	// catiserve child; 0 marks the closed-loop corpus workload.
	rate float64
	// wantCached is whether every timed request must hit the result cache.
	wantCached bool
	// conns caps the open loop's concurrent requests (0: nproc).
	conns int
	// inputs generates the measured and warm-up inputs from the seed.
	inputs func(seed uint64, seconds int) (measured, warm []input, err error)
}

var workloads = map[string]*workload{
	// interactive: distinct binaries arriving as a Poisson process at a
	// fixed rate well under the seed commit's capacity; every request
	// misses the result cache, so predict does nearly all the work. One
	// connection — one analyst with one request outstanding — queues
	// bursts in arrival order: two requests sharing the two CPUs would both
	// land in the tail, and the tail would swing with machine noise.
	"interactive": {
		rate:  interactiveRate,
		conns: 1,
		inputs: func(seed uint64, seconds int) ([]input, []input, error) {
			ins, err := genGrid(seed, 1, int(interactiveRate*float64(seconds)+0.5)+1)
			if err != nil {
				return nil, nil, err
			}
			warm, err := genGrid(seed, 9, 2)
			return ins, warm, err
		},
	},
	// cached: a small set posted once during set-up, then a high fixed
	// rate that only ever hits the result cache, so serve does all the
	// work and predict none.
	"cached": {
		rate:       cachedRate,
		wantCached: true,
		inputs: func(seed uint64, _ int) ([]input, []input, error) {
			ins, err := genGrid(seed, 2, cachedInputs)
			return ins, nil, err
		},
	},
	// corpus: one caller in a worker process running core.InferBatch back
	// to back, each call over the whole fixed corpus, two large binaries
	// included.
	"corpus": {
		inputs: func(seed uint64, _ int) ([]input, []input, error) {
			ins, err := genGrid(seed, 3, corpusSmall)
			if err != nil {
				return nil, nil, err
			}
			for i, at := range corpusLargeAt {
				big, err := largeInput(seed, 4, i, corpusLargeFuncs[i])
				if err != nil {
					return nil, nil, err
				}
				ins = append(ins[:at], append([]input{big}, ins[at:]...)...)
			}
			warm, err := genGrid(seed, 9, 2)
			return ins, warm, err
		},
	},
}

// Fixed workload parameters. The rates are constants, never derived from
// the program's speed at run time, so a faster commit meets the same
// offered load.
const (
	interactiveRate = 3.0   // requests/s
	cachedRate      = 500.0 // requests/s
	cachedInputs    = 16
	corpusSmall     = 24
)

var (
	corpusLargeFuncs = []int{40, 100}
	corpusLargeAt    = []int{5, 17}
)

// env is one set-up: the trained model, the inputs, and the process that
// serves them.
type env struct {
	cati        *core.CATI
	modelPath   string
	modelDigest string
	inputs      []input
	daemon      *daemon
	worker      *corpusWorker
	// fill holds the cached workload's cache-filling requests.
	fill []outcome
	// next is the first interactive input no window has sent yet.
	next int
}

func (e *env) close() {
	if e.daemon != nil {
		e.daemon.stop()
	}
	if e.worker != nil {
		e.worker.stop()
	}
}

// connections is the open-loop connection count: never more than the
// machine has CPUs, so the generator cannot out-schedule the program.
func (wl *workload) connections() int {
	if wl.conns > 0 {
		return min(wl.conns, runtime.NumCPU())
	}
	return runtime.NumCPU()
}

// setup trains the model, generates the inputs, and starts and warms the
// process that will serve them.
func setup(ctx context.Context, cfg config, wl *workload, dir string) (*env, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cati, blob, err := trainModel(ctx)
	if err != nil {
		return nil, err
	}
	measured, warm, err := wl.inputs(cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	e := &env{cati: cati, inputs: measured, modelPath: filepath.Join(dir, "cati.model")}
	if e.modelDigest, err = modelCheck(ctx, cati, measured[:min(probeInputs, len(measured))]); err != nil {
		return nil, err
	}
	if err := os.WriteFile(e.modelPath, blob, 0o644); err != nil {
		return nil, err
	}
	if wl.rate == 0 {
		for i, in := range measured {
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("c-%03d.elf", i)), in.image, 0o644); err != nil {
				return nil, err
			}
		}
		for i, in := range warm {
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("w-%03d.elf", i)), in.image, 0o644); err != nil {
				return nil, err
			}
		}
		e.worker, err = startWorker(cfg.self, e.modelPath, dir)
		return e, err
	}
	if e.daemon, err = startDaemon(ctx, cfg.catiserve, e.modelPath, wl.connections()); err != nil {
		return nil, err
	}
	for _, in := range warm {
		if o, _ := e.daemon.infer(in.image, time.Now()); !o.ok {
			e.close()
			return nil, fmt.Errorf("warm-up request: %s", o.err)
		}
	}
	if wl.wantCached {
		for _, in := range measured {
			o, r := e.daemon.infer(in.image, time.Now())
			if !o.ok || r.Cached {
				e.close()
				return nil, fmt.Errorf("cache-filling request: ok=%v cached=%v %s", o.ok, r.Cached, o.err)
			}
			e.fill = append(e.fill, o)
		}
	}
	return e, nil
}

// windowStats is one timed window's outcome.
type windowStats struct {
	lat               []float64 // ms, successful operations
	at                []float64 // when each of lat was due, as a share of the window
	attempted, failed int
	rejected          int // 429 answers
	vucs              int
	elapsed           time.Duration
	cpu               time.Duration // serving or worker process CPU
	rss               []float64     // serving or worker process RSS samples in the window, MiB
	hwm               int64         // the same process's lifetime peak RSS (VmHWM), bytes
	late              []float64     // open loops: generator lateness, ms
	failures          []string      // the first few failure reasons
}

func (w *windowStats) fail(reason string) {
	w.failed++
	if len(w.failures) < 5 {
		w.failures = append(w.failures, reason)
	}
}

// e2e reports the window's end-to-end metrics.
func (w *windowStats) e2e(m metricSet) {
	p50, p90 := slicedPercentiles(w.lat, w.at)
	m.add("p50_ms", "ms", p50)
	m.add("p90_ms", "ms", p90)
	m.add("cpu_ms_per_op", "ms", ms(w.cpu)/float64(w.attempted))
	m.add("vucs_per_s", "VUC/s", float64(w.vucs)/w.elapsed.Seconds())
	m.add("rss_mb", "MiB", median(w.rss))
}

// slicedPercentiles returns the median and p90 of a window's latencies.
// A window with at least 200 samples is cut into equal-time slices of 100
// or more samples each (at most 20), and each percentile is the median of
// the slices' percentiles: on a shared machine a few seconds of stolen CPU
// then move it by at most those slices' share instead of dragging the
// whole window's tail. at[i] is when sample i was due, as a share of the
// window; smaller windows use plain nearest-rank percentiles.
func slicedPercentiles(lat, at []float64) (p50, p90 float64) {
	k := min(len(lat)/100, 20)
	if k < 2 {
		s := sortedCopy(lat)
		return percentile(s, 0.50), percentile(s, 0.90)
	}
	slices := make([][]float64, k)
	for i, a := range at {
		j := min(int(a*float64(k)), k-1)
		slices[j] = append(slices[j], lat[i])
	}
	var p50s, p90s []float64
	for _, sl := range slices {
		s := sortedCopy(sl)
		p50s = append(p50s, percentile(s, 0.50))
		p90s = append(p90s, percentile(s, 0.90))
	}
	return median(p50s), median(p90s)
}

// summary is the window's human-readable record in the ledger line.
func (w *windowStats) summary() map[string]any {
	lat := sortedCopy(w.lat)
	s := map[string]any{
		"ops": w.attempted, "failed": w.failed, "rejected_429": w.rejected,
		"samples":      len(lat),
		"p50_ms":       percentile(lat, 0.50),
		"p90_ms":       percentile(lat, 0.90),
		"p99_ms":       percentile(lat, 0.99),
		"elapsed_s":    w.elapsed.Seconds(),
		"cpu_s":        w.cpu.Seconds(),
		"vmhwm_mib":    float64(w.hwm) / (1 << 20),
		"rss_max_mib":  percentile(sortedCopy(w.rss), 1),
		"beyond_p90_n": len(lat) - int(math.Ceil(0.9*float64(len(lat)))),
	}
	if len(w.late) > 0 {
		late := sortedCopy(w.late)
		s["late_p99_ms"] = percentile(late, 0.99)
		s["late_max_ms"] = late[len(late)-1]
	}
	return s
}

// tracing collects what a traced window observes.
type tracing struct {
	rec *recorder
	// window and fill are per-request server span trees: the traced
	// window's requests and the cached workload's cache fills.
	window, fill  []reqTree
	before, after promText // daemon /metrics around the traced window
	workerProm    promText // corpus worker telemetry after its traced loop
	server        []span   // every server span fetched, for the span file
}

// reqTree is one request: the client's view and the server's span tree.
type reqTree struct {
	o     outcome
	spans []span
}

// measure runs one timed window of the workload.
func (wl *workload) measure(ctx context.Context, cfg config, e *env, refs []reference, d time.Duration, tr *tracing) (*windowStats, error) {
	if wl.rate == 0 {
		return measureCorpus(e, refs, d, tr)
	}
	return wl.measureOpen(ctx, cfg, e, refs, d, tr)
}

// measureOpen drives the daemon with the open-loop schedule for one window.
func (wl *workload) measureOpen(ctx context.Context, cfg config, e *env, refs []reference, d time.Duration, tr *tracing) (*windowStats, error) {
	half := 0
	if tr != nil {
		half = 1
	}
	sched := arrivals(uint64(mix(cfg.seed, 100+half, 0)), wl.rate, d)
	pick := func(i int) int { return i % len(e.inputs) }
	if !wl.wantCached {
		// Every interactive request is a binary the daemon has not seen.
		first := e.next
		if first+len(sched) > len(e.inputs) {
			return nil, fmt.Errorf("only %d distinct inputs for %d requests", len(e.inputs)-first, len(sched))
		}
		e.next += len(sched)
		pick = func(i int) int { return first + i }
	}
	if tr != nil {
		var err error
		if tr.before, err = e.daemon.scrape(); err != nil {
			return nil, err
		}
	}
	cpu0, err := procCPU(e.daemon.pid)
	if err != nil {
		return nil, err
	}
	rss := sampleRSS(e.daemon.pid)
	outs, late := openLoop(ctx, sched, wl.connections(), func(i int, start time.Time) outcome {
		k := pick(i)
		o, r := e.daemon.infer(e.inputs[k].image, start)
		o.check(r, refs[k], wl.wantCached)
		return o
	})
	mem := rss.samples()
	cpu1, err := procCPU(e.daemon.pid)
	if err != nil {
		return nil, err
	}
	w := &windowStats{cpu: cpu1 - cpu0, rss: mem}
	if w.hwm, err = procPeakRSS(e.daemon.pid); err != nil {
		return nil, err
	}
	for i, o := range outs {
		w.attempted++
		w.late = append(w.late, ms(late[i]))
		if o.status == 429 {
			w.rejected++
		}
		if !o.ok {
			w.fail(o.err)
			continue
		}
		w.lat = append(w.lat, ms(o.latency()))
		w.at = append(w.at, float64(o.due)/float64(d))
		w.vucs += o.vucs
		w.elapsed = max(w.elapsed, o.done)
	}
	lateSorted := sortedCopy(w.late)
	if p99, worst := percentile(lateSorted, 0.99), lateSorted[len(lateSorted)-1]; p99 > ms(maxLateP99) || worst > ms(maxLate) {
		return nil, fmt.Errorf("run invalid: the generator ran late (p99 %.1fms, max %.1fms; bounds %v, %v)", p99, worst, maxLateP99, maxLate)
	}
	if tr != nil {
		if tr.after, err = e.daemon.scrape(); err != nil {
			return nil, err
		}
		// The daemon's store keeps the most recent traces; take the last
		// requests' trees.
		recent := append([]outcome(nil), outs...)
		sort.Slice(recent, func(i, j int) bool { return recent[i].done < recent[j].done })
		if len(recent) > maxTrees {
			recent = recent[len(recent)-maxTrees:]
		}
		if tr.window, err = fetchTrees(e.daemon, recent, tr); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// maxTrees bounds the span trees fetched per window, below the daemon's
// 256-trace store.
const maxTrees = 200

// fetchTrees reads each request's span tree back from the daemon and
// adds the client's view of the request as its root span (client and
// daemon share the host's clock), so the written span file holds one
// connected tree per request.
func fetchTrees(d *daemon, outs []outcome, tr *tracing) ([]reqTree, error) {
	// A request's root span ends just after its response is written.
	time.Sleep(300 * time.Millisecond)
	var trees []reqTree
	for _, o := range outs {
		if o.traceID == "" {
			continue
		}
		spans, err := d.traceTree(o.traceID)
		if err != nil {
			return nil, err
		}
		client := span{Trace: o.traceID, ID: "client", Name: "client.infer",
			Start: o.sentAt.UnixNano(), Dur: int64(o.done - o.sent)}
		for i := range spans {
			if spans[i].Parent == "" {
				spans[i].Parent = client.ID
			}
		}
		tr.server = append(tr.server, client)
		tr.server = append(tr.server, spans...)
		trees = append(trees, reqTree{o: o, spans: spans})
	}
	return trees, nil
}

// measureCorpus runs one closed-loop window in the corpus worker.
func measureCorpus(e *env, refs []reference, d time.Duration, tr *tracing) (*windowStats, error) {
	cpu0, err := procCPU(e.worker.pid)
	if err != nil {
		return nil, err
	}
	rss := sampleRSS(e.worker.pid)
	r, err := e.worker.run(d, tr != nil)
	mem := rss.samples()
	if err != nil {
		return nil, err
	}
	cpu1, err := procCPU(e.worker.pid)
	if err != nil {
		return nil, err
	}
	w := &windowStats{cpu: cpu1 - cpu0, elapsed: time.Duration(r.ElapsedNS), rss: mem}
	if w.hwm, err = procPeakRSS(e.worker.pid); err != nil {
		return nil, err
	}
	for _, b := range r.Batches {
		w.lat = append(w.lat, float64(b.Dur)/1e6)
		w.at = append(w.at, float64(b.Start)/float64(d))
		for k, digest := range b.Digests {
			w.attempted++
			if digest != refs[k].digest {
				w.fail(fmt.Sprintf("%s: records differ from core.InferBinary %v", e.inputs[k].name, b.Errs))
				continue
			}
			w.vucs += refs[k].vucs
		}
		if tr != nil {
			tr.rec.add("core.InferBatch", b.Start, b.Dur)
		}
	}
	if tr != nil && r.Metrics != "" {
		if tr.workerProm, err = parseProm(strings.NewReader(r.Metrics)); err != nil {
			return nil, err
		}
	}
	return w, nil
}

// serveLayer reports the serve and par layers' metrics. The open-loop
// workloads read them from their traced window; the corpus workload,
// where serve does no work, sends its layer-walk inputs through a
// catiserve child once each (a miss) and again (a hit).
func (wl *workload) serveLayer(ctx context.Context, cfg config, e *env, sub []input, refs []reference, tr *tracing, m metricSet) error {
	if e.daemon != nil {
		serveMetrics(tr.window, tr.fill, tr.before, tr.after, m)
		m.add("par.queue_wait_ms", "ms", 1000*orZero(histMean(tr.before, tr.after, "cati_par_queue_wait_seconds")))
		return nil
	}
	m.add("par.queue_wait_ms", "ms", 1000*orZero(histMean(nil, tr.workerProm, "cati_par_queue_wait_seconds")))
	d, err := startDaemon(ctx, cfg.catiserve, e.modelPath, 1)
	if err != nil {
		return err
	}
	defer d.stop()
	before, err := d.scrape()
	if err != nil {
		return err
	}
	var outs []outcome
	for _, cached := range []bool{false, true} {
		for i, in := range sub {
			o, r := d.infer(in.image, time.Now())
			o.check(r, refs[i], cached)
			if !o.ok {
				return fmt.Errorf("serve probe of %s: %s", in.name, o.err)
			}
			outs = append(outs, o)
		}
	}
	after, err := d.scrape()
	if err != nil {
		return err
	}
	trees, err := fetchTrees(d, outs, tr)
	if err != nil {
		return err
	}
	serveMetrics(trees, nil, before, after, m)
	return nil
}

// serveMetrics derives the serve layer's metrics from request span trees
// and /metrics deltas. Hit-path numbers (probe, request self time, HTTP)
// come from window; miss-path numbers (admission, parse, queue wait) from
// every tree that went through admission, window and extra alike.
func serveMetrics(window, extra []reqTree, before, after promText, m metricSet) {
	var probe, self, httpMs, adm, parse, wait []float64
	for _, t := range window {
		by := spansByName(t.spans)
		root, ok := by["serve.request"]
		if !ok {
			continue
		}
		probe = append(probe, float64(by["serve.cache-probe"].Dur)/1e3)
		self = append(self, float64(selfTimes(t.spans)[root.ID])/1e6)
		httpMs = append(httpMs, ms(t.o.done-t.o.sent)-float64(root.Dur)/1e6)
	}
	for _, t := range append(append([]reqTree(nil), window...), extra...) {
		by := spansByName(t.spans)
		a, ok := by["serve.admission"]
		if !ok {
			continue
		}
		adm = append(adm, float64(a.Dur)/1e6)
		parse = append(parse, float64(by["serve.parse"].Dur)/1e6)
		// Queue wait: from entering the batcher until this binary's first
		// pipeline stage starts — batch linger plus the worker pool.
		batch := by["serve.batch"]
		first := int64(math.MaxInt64)
		for _, s := range t.spans {
			if s.Parent == batch.ID && s.Start < first {
				first = s.Start
			}
		}
		if first != math.MaxInt64 {
			wait = append(wait, float64(first-batch.Start)/1e6)
		}
	}
	m.add("serve.cache_probe_us", "us", mean(probe))
	m.add("serve.request_self_ms", "ms", mean(self))
	m.add("serve.http_ms", "ms", mean(httpMs))
	m.add("serve.admission_ms", "ms", mean(adm))
	m.add("serve.parse_ms", "ms", mean(parse))
	m.add("serve.queue_wait_ms", "ms", mean(wait))
	batch := histMean(before, after, "cati_serve_batch_size")
	if math.IsNaN(batch) { // no batch ran in the window: the daemon's lifetime mean
		batch = histMean(nil, after, "cati_serve_batch_size")
	}
	m.add("serve.batch_size_mean", "count", batch)
	hits := delta(before, after, "cati_serve_cache_hits_total")
	misses := delta(before, after, "cati_serve_cache_misses_total")
	m.add("serve.cache_hit_ratio", "ratio", hits/(hits+misses))
	m.add("serve.rejected", "count", delta(before, after, "cati_serve_rejected_total"))
}

func spansByName(spans []span) map[string]span {
	by := make(map[string]span, len(spans))
	for _, s := range spans {
		if _, ok := by[s.Name]; !ok {
			by[s.Name] = s
		}
	}
	return by
}

// orZero maps "no observations" (NaN) to zero: a pool that queued
// nothing waited nothing.
func orZero(v float64) float64 {
	if math.IsNaN(v) {
		return 0
	}
	return v
}

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// The metrics a run reports, by kind; validate holds every run to exactly
// these, and a test holds BENCHMARK.json to them.
var (
	endToEnd = []metricSpec{
		{"setup_s", "s"}, {"p50_ms", "ms"}, {"p90_ms", "ms"},
		{"cpu_ms_per_op", "ms"}, {"vucs_per_s", "VUC/s"}, {"rss_mb", "MiB"},
	}
	perLayer = func() []metricSpec {
		specs := []metricSpec{
			{"predict.ms_per_kvuc", "ms"}, {"predict.share", "ratio"},
			{"predict.fanout_ratio", "ratio"}, {"nn.useful_ratio", "ratio"},
		}
		for _, s := range ctypes.AllStages() {
			specs = append(specs,
				metricSpec{"nn." + nodeName(s) + ".ms_per_kvuc", "ms"},
				metricSpec{"nn." + nodeName(s) + ".gflops", "GFLOP/s"})
		}
		for _, g := range []string{"conv1", "conv2", "dense1", "dense2"} {
			specs = append(specs, metricSpec{"gemm." + g + ".ceiling_gflops", "GFLOP/s"})
		}
		return append(specs,
			metricSpec{"core.ms_per_kvuc", "ms"}, metricSpec{"elfx.read_us_per_bin", "us"},
			metricSpec{"vareco.recover_ms_per_bin", "ms"}, metricSpec{"vuc.extract_us_per_vuc", "us"},
			metricSpec{"embed.us_per_vuc", "us"}, metricSpec{"vote.us_per_var", "us"},
			metricSpec{"serve.queue_wait_ms", "ms"}, metricSpec{"serve.admission_ms", "ms"},
			metricSpec{"serve.parse_ms", "ms"}, metricSpec{"serve.batch_size_mean", "count"},
			metricSpec{"serve.cache_probe_us", "us"}, metricSpec{"serve.request_self_ms", "ms"},
			metricSpec{"serve.http_ms", "ms"}, metricSpec{"serve.cache_hit_ratio", "ratio"},
			metricSpec{"serve.rejected", "count"}, metricSpec{"par.queue_wait_ms", "ms"},
			metricSpec{"runtime.gc_cpu_share", "ratio"}, metricSpec{"runtime.mallocs_per_vuc", "count"},
			metricSpec{"runtime.alloc_kb_per_vuc", "KiB"}, metricSpec{"trace.overhead_p50_ms", "ms"},
			metricSpec{"trace.overhead_cpu_ms_per_op", "ms"},
		)
	}()
)
