package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is a catiserve child process started with default flags: only
// the model path and a loopback listen address are given, so telemetry
// and tracing are on, as the daemon always runs.
type daemon struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	pid    int
	client *http.Client
	logs   *tail
	done   chan struct{} // closed once stderr is drained
}

var listenRe = regexp.MustCompile(`catiserve listening.*\baddr=(\S+)`)

// startDaemon launches catiserve and waits until /v1/healthz answers.
func startDaemon(ctx context.Context, bin, model string, conns int) (*daemon, error) {
	cmd := exec.Command(bin, "-model", model, "-addr", "127.0.0.1:0")
	cmd.SysProcAttr = childAttr()
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting catiserve: %w", err)
	}
	d := &daemon{cmd: cmd, pid: cmd.Process.Pid, logs: &tail{}, done: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.done)
		sc := bufio.NewScanner(stderr)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			d.logs.add(line)
			if m := listenRe.FindStringSubmatch(line); m != nil && !sent {
				addr <- m[1]
				sent = true
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.done:
		d.stop()
		return nil, fmt.Errorf("catiserve exited before listening:\n%s", d.logs)
	case <-time.After(60 * time.Second):
		d.stop()
		return nil, fmt.Errorf("catiserve did not start listening within 60s:\n%s", d.logs)
	case <-ctx.Done():
		d.stop()
		return nil, ctx.Err()
	}
	d.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	for t0 := time.Now(); ; time.Sleep(20 * time.Millisecond) {
		resp, err := d.client.Get(d.base + "/v1/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Since(t0) > 30*time.Second {
			d.stop()
			return nil, fmt.Errorf("catiserve never became healthy:\n%s", d.logs)
		}
	}
}

// stop drains the daemon with SIGTERM (SIGKILL after 20s) and waits for
// it and its log reader to finish.
func (d *daemon) stop() {
	if d.cmd.Process == nil {
		return
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	// The log reader sees EOF once the daemon exits; Wait only after it
	// has, so no log line is lost.
	select {
	case <-d.done:
	case <-time.After(20 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.done
	}
	_ = d.cmd.Wait()
	if d.client != nil {
		d.client.CloseIdleConnections()
	}
}

// inferResult is the part of a /v1/infer response the benchmark checks.
type inferResult struct {
	Cached bool            `json:"cached"`
	Vars   json.RawMessage `json:"vars"`
}

// infer posts one image and decodes the answer. The outcome's times are
// offsets from start; ok is set for a 200 the caller has yet to check.
func (d *daemon) infer(image []byte, start time.Time) (o outcome, r inferResult) {
	o.sentAt = time.Now()
	o.sent = o.sentAt.Sub(start)
	defer func() { o.done = time.Since(start) }()
	resp, err := d.client.Post(d.base+"/v1/infer", "application/octet-stream", bytes.NewReader(image))
	if err != nil {
		o.err = err.Error()
		return o, r
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.status = resp.StatusCode
	o.traceID = resp.Header.Get("X-Cati-Trace-Id")
	switch {
	case err != nil:
		o.err = err.Error()
	case resp.StatusCode != http.StatusOK:
		o.err = fmt.Sprintf("status %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	default:
		if err := json.Unmarshal(body, &r); err != nil {
			o.err = "decoding response: " + err.Error()
		} else {
			o.ok = true
		}
	}
	return o, r
}

// check compares a decoded answer with the in-process reference byte for
// byte and marks the outcome failed on any difference.
func (o *outcome) check(r inferResult, ref reference, wantCached bool) {
	if !o.ok {
		return
	}
	switch {
	case !bytes.Equal(r.Vars, ref.records):
		o.ok, o.err = false, "records differ from core.InferBinary"
	case r.Cached != wantCached:
		o.ok, o.err = false, fmt.Sprintf("cached=%v, want %v", r.Cached, wantCached)
	default:
		o.vucs = ref.vucs
	}
}

// scrape reads the daemon's /metrics exposition.
func (d *daemon) scrape() (promText, error) {
	resp, err := d.client.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body)
}

// traceTree fetches one request's span tree from /v1/trace/{id}.
func (d *daemon) traceTree(id string) ([]span, error) {
	resp, err := d.client.Get(d.base + "/v1/trace/" + id)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/v1/trace/%s: status %d", id, resp.StatusCode)
	}
	var body struct {
		Spans []struct {
			Trace  string `json:"trace"`
			Span   string `json:"span"`
			Parent string `json:"parent"`
			Name   string `json:"name"`
			Start  int64  `json:"start_us"`
			Dur    int64  `json:"dur_us"`
		} `json:"spans"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		return nil, fmt.Errorf("/v1/trace/%s: %w", id, err)
	}
	out := make([]span, len(body.Spans))
	for i, s := range body.Spans {
		out[i] = span{Trace: s.Trace, ID: s.Span, Parent: s.Parent, Name: s.Name,
			Start: s.Start * 1000, Dur: s.Dur * 1000}
	}
	return out, nil
}

// promText is a parsed Prometheus text exposition: series (name plus
// label set, as written) to value.
type promText map[string]float64

func parseProm(r io.Reader) (promText, error) {
	out := make(promText)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		if i := strings.Index(line, " # "); i >= 0 {
			line = line[:i] // exemplar suffix
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("metrics line %q: no value", line)
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[line[:sp]] = v
	}
	return out, sc.Err()
}

// sum adds every series of one metric name across its label sets.
func (p promText) sum(name string) float64 {
	total := 0.0
	for series, v := range p {
		if series == name || strings.HasPrefix(series, name+"{") {
			total += v
		}
	}
	return total
}

// delta is the change in a metric's sum between two scrapes.
func delta(before, after promText, name string) float64 {
	return after.sum(name) - before.sum(name)
}

// histMean is the mean of the observations a histogram gained between two
// scrapes (NaN when it gained none).
func histMean(before, after promText, name string) float64 {
	n := delta(before, after, name+"_count")
	if n == 0 {
		return math.NaN()
	}
	return delta(before, after, name+"_sum") / n
}

// childAttr makes a child die with the benchmark, so a killed run leaves
// no daemon or worker behind.
func childAttr() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// tail keeps the last lines of a child's stderr for error reports.
type tail struct {
	mu    sync.Mutex
	lines []string
}

func (t *tail) add(line string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.lines = append(t.lines, line)
	if len(t.lines) > 40 {
		t.lines = t.lines[len(t.lines)-40:]
	}
}

// Write makes a tail usable as a child's Stderr.
func (t *tail) Write(p []byte) (int, error) {
	for _, line := range strings.Split(strings.TrimRight(string(p), "\n"), "\n") {
		t.add(line)
	}
	return len(p), nil
}

func (t *tail) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return strings.Join(t.lines, "\n")
}
