package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// host identifies where and on what a run happened. Two record sets whose
// hosts differ are flagged by -compare rather than compared silently.
type host struct {
	CPU        string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	// Source is the git commit when the tree is a repository, and otherwise
	// "tree:" plus a SHA-256 over every .go and go.mod file of the tree, so
	// an exported checkout still names the code it measured.
	Source string `json:"source"`
}

func hostRecord() host {
	return host{
		CPU:        cpuModel(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Source:     sourceID(),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func sourceID() string {
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			return strings.TrimSpace(string(out))
		}
	}
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", p)
		_, _ = io.Copy(h, f)
		f.Close()
	}
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// peakRSSMB reads the process high-water RSS (VmHWM) in MiB.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

// A run measures at least setupMinRuns cold set-ups and keeps going for
// setupBudget (at most setupMaxRuns); setup_s is their median. A sweep's
// set-up takes about a second, the service's a few milliseconds, so the
// service gets more samples for the same time.
const (
	setupMinRuns = 5
	setupMaxRuns = 15
	setupBudget  = 3 * time.Second
)

// measureSetup runs the workload's cold first iteration in fresh child
// processes, one after another, and returns each child's own timing. A
// fresh process is the only way to be cold again: the sequential-baseline
// cache, the buffer pools and the Go heap are all process-wide.
func measureSetup(workload string, seed uint64) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var secs []float64
	start := time.Now()
	for i := 0; i < setupMaxRuns && (i < setupMinRuns || time.Since(start) < setupBudget); i++ {
		cmd := exec.Command(exe, "-setup-child", "-workload", workload, "-seed", strconv.FormatUint(seed, 10))
		cmd.Stderr = os.Stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		fields := strings.Fields(string(out))
		if len(fields) == 0 {
			return nil, fmt.Errorf("set-up child printed nothing")
		}
		v, err := strconv.ParseFloat(fields[len(fields)-1], 64)
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		secs = append(secs, v)
	}
	return secs, nil
}
