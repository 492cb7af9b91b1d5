package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/elfx"
	"repro/internal/telemetry"
)

// The corpus workload runs in a worker child process, the shape of
// `cati infer a b c…` or a bulk worker: it loads the model artifact and
// the corpus files, then calls core.InferBatch back to back. A separate
// process keeps its CPU time and peak memory apart from the benchmark's
// own training and checking.
//
// Protocol: the worker prints "ready" once loaded and warmed up. Each
// "go <seconds> <traced>" line on stdin runs one timed closed loop and
// answers with one JSON line (workerResult). EOF on stdin ends it.

// workerBatch is one InferBatch call over the whole corpus.
type workerBatch struct {
	Start int64 // ns from the loop's start
	Dur   int64 // ns
	// Digests are the per-binary record digests, "" where the binary
	// failed; Errs holds those failures' messages.
	Digests []string
	Errs    []string `json:",omitempty"`
}

type workerResult struct {
	Batches []workerBatch
	// ElapsedNS runs from the loop's start to the last batch's end.
	ElapsedNS int64
	// Metrics is the worker's telemetry exposition (traced loops only).
	Metrics string `json:",omitempty"`
	Err     string `json:",omitempty"`
}

// workerMain is the child side.
func workerMain(args []string) int {
	fs := flag.NewFlagSet("corpus-worker", flag.ContinueOnError)
	model := fs.String("model", "", "model artifact")
	dir := fs.String("inputs", "", "directory of corpus (c-*.elf) and warm-up (w-*.elf) binaries")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := runWorker(*model, *dir, os.Stdin, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "corpus-worker:", err)
		return 1
	}
	return 0
}

func runWorker(model, dir string, in io.Reader, out io.Writer) error {
	blob, err := os.ReadFile(model)
	if err != nil {
		return err
	}
	cati, err := core.Load(blob)
	if err != nil {
		return err
	}
	bins, err := readBins(filepath.Join(dir, "c-*.elf"))
	if err != nil {
		return err
	}
	warm, err := readBins(filepath.Join(dir, "w-*.elf"))
	if err != nil {
		return err
	}
	ctx := context.Background()
	if _, err := cati.InferBatch(ctx, warm); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}
	w := bufio.NewWriter(out)
	fmt.Fprintln(w, "ready")
	if err := w.Flush(); err != nil {
		return err
	}
	sc := bufio.NewScanner(in)
	for sc.Scan() {
		var secs float64
		var traced int
		if _, err := fmt.Sscanf(sc.Text(), "go %g %d", &secs, &traced); err != nil {
			return fmt.Errorf("bad command %q", sc.Text())
		}
		res := corpusLoop(ctx, cati, bins, time.Duration(secs*float64(time.Second)), traced == 1)
		if err := json.NewEncoder(w).Encode(res); err != nil {
			return err
		}
		if err := w.Flush(); err != nil {
			return err
		}
	}
	return sc.Err()
}

// readBins parses the files matching pattern, in name order.
func readBins(pattern string) ([]*elfx.Binary, error) {
	names, err := filepath.Glob(pattern)
	if err != nil {
		return nil, err
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("no inputs match %s", pattern)
	}
	bins := make([]*elfx.Binary, len(names))
	for i, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			return nil, err
		}
		if bins[i], err = elfx.Read(data); err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
	}
	return bins, nil
}

// corpusLoop calls InferBatch over the whole corpus, back to back, for
// about d: a call starts only while the window has at least half the last
// call's length left, so the loop ends within half a call of d. A traced
// loop turns the program's telemetry on and returns its exposition, for
// the par pool's queue-wait histogram.
func corpusLoop(ctx context.Context, cati *core.CATI, bins []*elfx.Binary, d time.Duration, traced bool) workerResult {
	telemetry.SetEnabled(traced)
	defer telemetry.SetEnabled(false)
	var res workerResult
	start := time.Now()
	var last time.Duration
	for time.Since(start)+last/2 < d {
		b := workerBatch{Start: time.Since(start).Nanoseconds()}
		out, err := cati.InferBatch(ctx, bins)
		b.Dur = time.Since(start).Nanoseconds() - b.Start
		last = time.Duration(b.Dur)
		if err != nil {
			res.Err = err.Error()
			break
		}
		b.Digests = make([]string, len(bins))
		for i, r := range out {
			if r.Err != nil {
				b.Errs = append(b.Errs, r.Err.Error())
				continue
			}
			b.Digests[i] = digestBytes(recordsJSON(r.Vars))
		}
		res.Batches = append(res.Batches, b)
	}
	res.ElapsedNS = time.Since(start).Nanoseconds()
	if traced {
		var buf bytes.Buffer
		if err := telemetry.Default().WritePrometheus(&buf); err == nil {
			res.Metrics = buf.String()
		}
	}
	return res
}

// corpusWorker is the parent's handle on a worker child.
type corpusWorker struct {
	cmd    *exec.Cmd
	pid    int
	stdin  io.WriteCloser
	stdout *bufio.Reader
	logs   tail
}

// startWorker launches the worker and waits for "ready".
func startWorker(self, model, dir string) (*corpusWorker, error) {
	w := &corpusWorker{}
	w.cmd = exec.Command(self, "corpus-worker", "-model", model, "-inputs", dir)
	w.cmd.Stderr = &w.logs
	w.cmd.SysProcAttr = childAttr()
	var err error
	if w.stdin, err = w.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	stdout, err := w.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	w.stdout = bufio.NewReaderSize(stdout, 1<<20)
	if err := w.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting corpus worker: %w", err)
	}
	w.pid = w.cmd.Process.Pid
	line, err := w.stdout.ReadString('\n')
	if err != nil || line != "ready\n" {
		w.stop()
		return nil, fmt.Errorf("corpus worker did not become ready (%q, %v): %s", line, err, w.logs.String())
	}
	return w, nil
}

// run performs one timed loop.
func (w *corpusWorker) run(d time.Duration, traced bool) (workerResult, error) {
	t := 0
	if traced {
		t = 1
	}
	var res workerResult
	if _, err := fmt.Fprintf(w.stdin, "go %g %d\n", d.Seconds(), t); err != nil {
		return res, fmt.Errorf("corpus worker: %w: %s", err, w.logs.String())
	}
	line, err := w.stdout.ReadBytes('\n')
	if err != nil {
		return res, fmt.Errorf("corpus worker: %w: %s", err, w.logs.String())
	}
	if err := json.Unmarshal(line, &res); err != nil {
		return res, fmt.Errorf("corpus worker result: %w", err)
	}
	if res.Err != "" {
		return res, fmt.Errorf("corpus worker: %s", res.Err)
	}
	return res, nil
}

// stop closes the worker's stdin, which ends it, and waits for it.
func (w *corpusWorker) stop() {
	_ = w.stdin.Close()
	exited := make(chan struct{})
	go func() {
		_ = w.cmd.Wait()
		close(exited)
	}()
	select {
	case <-exited:
	case <-time.After(20 * time.Second):
		_ = w.cmd.Process.Kill()
		<-exited
	}
}
