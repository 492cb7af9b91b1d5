package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/gemm"
)

// clockTick is the USER_HZ unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 on every architecture Go supports.
const clockTick = 10 * time.Millisecond

// procCPU returns the user+system CPU time process pid has used so far.
func procCPU(pid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may contain spaces; fields after it are
	// space-separated, utime and stime being fields 14 and 15.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return time.Duration(ut+st) * clockTick, nil
}

// rssSampler records process pid's resident set size (VmRSS) every 50ms
// while it runs. Memory is reported as the median sample: the lifetime
// peak (VmHWM) and even the window's maximum mostly measure how much of
// the artifact load's garbage the runtime has yet to hand back, which
// varies from run to run by a quarter.
type rssSampler struct {
	stop chan struct{}
	done chan []float64
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan []float64, 1)}
	go func() {
		var mib []float64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			if kb, err := procStatusKB(pid, "VmRSS:"); err == nil {
				mib = append(mib, float64(kb)/1024)
			}
			select {
			case <-tick.C:
			case <-s.stop:
				s.done <- mib
				return
			}
		}
	}()
	return s
}

// samples stops sampling and returns the RSS samples in MiB.
func (s *rssSampler) samples() []float64 {
	close(s.stop)
	return <-s.done
}

// procPeakRSS returns process pid's lifetime peak resident set size
// (VmHWM) in bytes.
func procPeakRSS(pid int) (int64, error) {
	kb, err := procStatusKB(pid, "VmHWM:")
	return kb << 10, err
}

// procStatusKB reads one "<key> <n> kB" line of /proc/<pid>/status.
func procStatusKB(pid int, key string) (int64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if v, ok := strings.CutPrefix(line, key); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("%s %q: %w", key, v, err)
			}
			return kb, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("/proc/%d/status: no %s", pid, key)
}

// machine describes the host a result came from; kernel throughput
// numbers do not transfer between machines, so every result carries it.
type machine struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Kernel     string `json:"gemm_kernel"`
	Go         string `json:"go"`
	OSKernel   string `json:"os_kernel"`
}

func describeMachine() machine {
	m := machine{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Kernel:     gemm.Active().String(),
		Go:         runtime.Version(),
		OSKernel:   "unknown",
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				m.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if data, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		m.OSKernel = strings.TrimSpace(string(data))
	}
	return m
}
