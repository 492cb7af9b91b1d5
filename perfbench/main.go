// Command perfbench is the repository's performance ledger: one command
// that runs a named workload against the real program, checks every
// answer against an in-process reference, and prints the end-to-end
// metrics (or, traced, the per-layer metrics) as one JSON line.
//
// Usage, from the repository root (run.sh builds the benchmark and
// catiserve from source first):
//
//	bash perfbench/run.sh --workload interactive --seed 1 --seconds 15 --trace 0
//	bash perfbench/run.sh --workload corpus --seed 2 --seconds 15 --trace 1
//	.bench_build/perfbench spread results.jsonl   # median and IQR per metric
//
// Workloads, metrics and the layer → end-to-end table are documented in
// perfbench/LEDGER.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "corpus-worker":
			os.Exit(workerMain(os.Args[2:]))
		case "spread":
			os.Exit(spreadMain(os.Args[2:]))
		}
	}
	os.Exit(benchMain(os.Args[1:]))
}

// config is one benchmark invocation.
type config struct {
	workload  string
	seed      uint64
	seconds   int
	traced    bool
	catiserve string
	workdir   string
	spanDir   string
	self      string
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: interactive, corpus or cached")
	seed := fs.Int64("seed", 1, "workload seed: every input and arrival time derives from it")
	fs.IntVar(&cfg.seconds, "seconds", 15, "length of the timed window in seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics instead of end-to-end ones")
	fs.StringVar(&cfg.catiserve, "catiserve", "", "catiserve binary built from this checkout")
	fs.StringVar(&cfg.workdir, "workdir", ".bench_build/run", "scratch directory for model and corpus files")
	fs.StringVar(&cfg.spanDir, "spans", ".bench_build/spans", "directory traced runs write their spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.seed, cfg.traced = uint64(*seed), trace == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds < 2 || (trace != 0 && trace != 1) || cfg.catiserve == "" {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload interactive|corpus|cached, -seconds ≥ 2, -trace 0|1 and -catiserve")
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	cfg.self = self
	// Every run must end well inside three minutes; a hung child or
	// request fails the run instead of stalling it.
	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	res, err := run(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out := json.NewEncoder(os.Stdout)
	if err := out.Encode(map[string]any{"ledger": res.ledger}); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := out.Encode(res.final()); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if !res.correct {
		fmt.Fprintln(os.Stderr, "perfbench: outputs disagree with the in-process reference:", res.ledger["failures"])
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet maps metric names to values.
type metricSet map[string]metric

func (m metricSet) add(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// result is what one run prints.
type result struct {
	correct           bool
	attempted, failed int
	metrics           metricSet
	ledger            map[string]any
}

func (r *result) final() any {
	return struct {
		Correct   bool      `json:"correct"`
		Attempted int       `json:"attempted"`
		Failed    int       `json:"failed"`
		Metrics   metricSet `json:"metrics"`
	}{r.correct, r.attempted, r.failed, r.metrics}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

// run sets the workload up several times, measures it, and checks it.
func run(ctx context.Context, cfg config) (*result, error) {
	wl := workloads[cfg.workload]
	if err := os.MkdirAll(cfg.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.workdir, cfg.workload+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Set-up — training, input generation, the model check, writing the
	// artifact, starting the serving process and warming it — runs
	// setupRuns times; setup_s is the median. Every repetition must yield
	// the same model, so this also proves training deterministic.
	var (
		e       *env
		setups  []float64
		digests []string
	)
	for i := 0; i < setupRuns; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		e, err = setup(ctx, cfg, wl, filepath.Join(dir, fmt.Sprintf("setup%d", i)))
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		digests = append(digests, e.modelDigest)
		logf("set-up %d/%d: %.2fs (model %s)", i+1, setupRuns, setups[i], e.modelDigest)
	}
	defer e.close()
	for _, d := range digests[1:] {
		if d != digests[0] {
			return nil, fmt.Errorf("training is not deterministic: model digests %v", digests)
		}
	}

	// Untimed reference answers from the in-process library.
	refs, err := references(ctx, e.cati, e.inputs)
	if err != nil {
		return nil, err
	}
	res := &result{correct: true, metrics: metricSet{}, ledger: map[string]any{
		"workload":          cfg.workload,
		"seed":              cfg.seed,
		"seconds":           cfg.seconds,
		"traced":            cfg.traced,
		"machine":           describeMachine(),
		"model_digest":      e.modelDigest,
		"model_fingerprint": e.cati.Fingerprint(),
		"inputs":            len(e.inputs),
		"records_digest":    recordsDigest(refs),
		"setup_s_each":      setups,
	}}

	window := time.Duration(cfg.seconds) * time.Second
	if !cfg.traced {
		w, err := wl.measure(ctx, cfg, e, refs, window, nil)
		if err != nil {
			return nil, err
		}
		res.add(w)
		w.e2e(res.metrics)
		res.metrics.add("setup_s", "s", median(setups))
		res.ledger["window"] = w.summary()
		return res, res.validate(endToEnd)
	}

	// Traced: an untraced half window, then a traced one; the difference
	// in their end-to-end numbers is the tracing overhead.
	tr := &tracing{rec: newRecorder("bench")}
	if len(e.fill) > 0 {
		// The cache fills are the oldest traces in the daemon's bounded
		// store; fetch them before the windows evict them.
		if tr.fill, err = fetchTrees(e.daemon, e.fill, tr); err != nil {
			return nil, err
		}
	}
	plain, err := wl.measure(ctx, cfg, e, refs, window/2, nil)
	if err != nil {
		return nil, err
	}
	traced, err := wl.measure(ctx, cfg, e, refs, window/2, tr)
	if err != nil {
		return nil, err
	}
	res.add(plain)
	res.add(traced)
	plainM, tracedM := metricSet{}, metricSet{}
	plain.e2e(plainM)
	traced.e2e(tracedM)
	res.metrics.add("trace.overhead_p50_ms", "ms", tracedM["p50_ms"].Value-plainM["p50_ms"].Value)
	res.metrics.add("trace.overhead_cpu_ms_per_op", "ms", tracedM["cpu_ms_per_op"].Value-plainM["cpu_ms_per_op"].Value)
	res.ledger["window_untraced"] = plain.summary()
	res.ledger["window_traced"] = traced.summary()

	// Per-layer numbers from the benchmark's own spans around each layer.
	n := min(walkInputs, len(e.inputs))
	sub, subRefs := e.inputs[:n], refs[:n]
	lr, err := walkLayers(ctx, e.cati, sub, subRefs)
	if err != nil {
		return nil, err
	}
	lr.metrics(e.cati, res.metrics)
	gemmMetrics(e.cati, res.metrics)
	if err := wl.serveLayer(ctx, cfg, e, sub, subRefs, tr, res.metrics); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.spanDir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.spanDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
	spans := append(append(tr.rec.closed(), lr.spans...), tr.server...)
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}
	res.ledger["spans"] = path
	return res, res.validate(perLayer)
}

// add folds one window's operation counts into the result.
func (r *result) add(w *windowStats) {
	r.attempted += w.attempted
	r.failed += w.failed
	if w.failed > 0 {
		r.correct = false
		r.ledger["failures"] = w.failures
	}
}

// validate checks the result carries exactly the declared metrics, each a
// finite number in its declared unit.
func (r *result) validate(specs []metricSpec) error {
	var bad []string
	for _, spec := range specs {
		v, ok := r.metrics[spec.name]
		if !ok || v.Unit != spec.unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			bad = append(bad, fmt.Sprintf("%s=%v", spec.name, v))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("metrics missing, not finite or in the wrong unit: %v", bad)
	}
	if len(r.metrics) != len(specs) {
		var got []string
		for n := range r.metrics {
			got = append(got, n)
		}
		sort.Strings(got)
		return fmt.Errorf("metric set %v does not match the %d declared", got, len(specs))
	}
	return nil
}

// spreadMain reads benchmark result lines from files (any line carrying
// a "metrics" object counts) and prints, per metric, the sample count,
// median, quartiles, and interquartile distance as a share of the median.
func spreadMain(paths []string) int {
	values := make(map[string][]float64)
	for _, path := range paths {
		data, err := os.ReadFile(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench spread:", err)
			return 1
		}
		for _, line := range strings.Split(string(data), "\n") {
			var r struct{ Metrics metricSet }
			if json.Unmarshal([]byte(line), &r) != nil {
				continue
			}
			for name, m := range r.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
	}
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		xs := values[n]
		q1, q3 := quartiles(xs)
		fmt.Printf("%-34s n=%-3d median=%-12.5g q1=%-12.5g q3=%-12.5g iqr/median=%.4f\n",
			n, len(xs), median(xs), q1, q3, relIQR(xs))
	}
	return 0
}
