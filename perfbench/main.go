// Command perfbench is the reproduction's benchmark: one command, three
// workloads, end-to-end metrics from untraced runs and per-layer metrics
// from a separate traced run. See README.md in this directory for the
// workloads, the metric definitions and the layer → end-to-end map.
//
// Usage (from the repository root; run.py builds this package first):
//
//	python3 perfbench/run.py --workload sweep-extreme --seed 1 --seconds 12 --trace 0
//	python3 perfbench/run.py --workload serve-storm --seed 1 --seconds 12 --trace 1
//	python3 perfbench/run.py --compare DIR_A DIR_B
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The full run record (host,
// samples, every correctness check) goes to .bench_build/perfbench/runs/.
// A failed correctness check makes the command exit 1 after printing.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// check is one output-correctness verdict.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// outcome is what a workload run produces: the metrics, the attempted and
// failed operation counts, every correctness check, and the raw samples
// behind the medians.
type outcome struct {
	Metrics   map[string]metric  `json:"metrics"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Checks    []check            `json:"checks"`
	Samples   map[string]summary `json:"samples"`
	Notes     map[string]any     `json:"notes,omitempty"`
}

func newOutcome() *outcome {
	return &outcome{
		Metrics: map[string]metric{},
		Samples: map[string]summary{},
		Notes:   map[string]any{},
	}
}

func (o *outcome) set(name, unit string, v float64) { o.Metrics[name] = metric{v, unit} }

// verdict records a check; a failed check counts as one failed operation.
func (o *outcome) verdict(name string, ok bool, format string, args ...any) {
	o.Attempted++
	c := check{Name: name, OK: ok}
	if !ok {
		o.Failed++
		c.Detail = fmt.Sprintf(format, args...)
	}
	o.Checks = append(o.Checks, c)
}

func (o *outcome) correct() bool {
	for _, c := range o.Checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// workloads maps each workload name to its untraced and traced runs.
var workloads = map[string]struct {
	plain  func(seed uint64, seconds float64) (*outcome, error)
	traced func(seed uint64, seconds float64) (*outcome, error)
	setup  func(seed uint64) error
}{
	"sweep-extreme":   {plainSweep(extremeSweep), tracedSweep(extremeSweep), setupSweep(extremeSweep)},
	"hybrid-observed": {plainSweep(hybridSweep), tracedSweep(hybridSweep), setupSweep(hybridSweep)},
	"serve-storm":     {plainStorm, tracedStorm, setupStorm},
}

// runRecord is the full record of one run written beside the summary line.
type runRecord struct {
	Workload string   `json:"workload"`
	Seed     uint64   `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Trace    int      `json:"trace"`
	Host     host     `json:"host"`
	Started  string   `json:"started"`
	FailFrac float64  `json:"fail_frac"`
	Correct  bool     `json:"correct"`
	Outcome  *outcome `json:"outcome"`
}

func main() {
	testing.Init() // the ledger sets test.benchtime per row
	workload := flag.String("workload", "", "sweep-extreme, hybrid-observed or serve-storm")
	seed := flag.Uint64("seed", 1, "workload seed: the inputs are a pure function of it")
	seconds := flag.Float64("seconds", 12, "measurement budget of one run, in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced mode (per-layer metrics), 0 the untraced one")
	out := flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory for run records and span files")
	setupChild := flag.Bool("setup-child", false, "internal: run one cold set-up and print its seconds")
	compareMode := flag.Bool("compare", false, "compare two directories of run records: perfbench -compare A B")
	flag.Parse()

	if *compareMode {
		if flag.NArg() != 2 {
			fatalf("-compare needs two record directories")
		}
		os.Exit(compare(flag.Arg(0), flag.Arg(1)))
	}
	w, ok := workloads[*workload]
	if !ok {
		fatalf("unknown workload %q", *workload)
	}
	if *setupChild {
		start := time.Now()
		if err := w.setup(*seed); err != nil {
			fatalf("set-up: %v", err)
		}
		fmt.Println(time.Since(start).Seconds())
		return
	}
	if *traced != 0 && *traced != 1 {
		fatalf("-trace must be 0 or 1")
	}
	if _, err := os.Stat(filepath.Join("internal", "experiments")); err != nil {
		fatalf("run from the repository root: %v", err)
	}
	outDir = *out

	run := w.plain
	if *traced == 1 {
		run = w.traced
	}
	started := time.Now()
	res, err := run(*seed, *seconds)
	if err != nil {
		fatalf("%s: %v", *workload, err)
	}
	rec := runRecord{
		Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: *traced,
		Host: hostRecord(), Started: started.UTC().Format(time.RFC3339Nano),
		Correct: res.correct(), Outcome: res,
	}
	if res.Attempted > 0 {
		rec.FailFrac = float64(res.Failed) / float64(res.Attempted)
	}
	path, err := writeRecord(rec)
	if err != nil {
		fatalf("record: %v", err)
	}
	printReport(rec, path)
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rec.Correct, res.Attempted, res.Failed, res.Metrics})
	if err != nil {
		fatalf("summary: %v", err)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

// outDir holds run records and span files.
var outDir string

func writeRecord(rec runRecord) (string, error) {
	dir := filepath.Join(outDir, "runs")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d-%d.json", rec.Workload, rec.Seed, rec.Trace, time.Now().UnixNano())
	path := filepath.Join(dir, name)
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}

// printReport writes the human-readable part of standard output: the host
// line, every metric with its unit, and any failed check.
func printReport(rec runRecord, path string) {
	h := rec.Host
	fmt.Printf("host: %s | nproc %d | GOMAXPROCS %d | %s | source %s\n",
		h.CPU, h.NProc, h.GOMAXPROCS, h.GoVersion, h.Source)
	fmt.Printf("workload %s seed %d trace %d: attempted %d failed %d fail_frac %.4g correct %v\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Outcome.Attempted, rec.Outcome.Failed, rec.FailFrac, rec.Correct)
	names := make([]string, 0, len(rec.Outcome.Metrics))
	for n := range rec.Outcome.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := rec.Outcome.Metrics[n]
		fmt.Printf("  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, n := range sortedKeys(rec.Outcome.Samples) {
		sm := rec.Outcome.Samples[n]
		fmt.Printf("  sample %-24s n=%-5d p25 %.5g  median %.5g  p75 %.5g  p99 %.5g\n", n, sm.N, sm.P25, sm.Median, sm.P75, sm.P99)
	}
	for _, c := range rec.Outcome.Checks {
		if !c.OK {
			fmt.Printf("  CHECK FAILED %s: %s\n", c.Name, c.Detail)
		}
	}
	fmt.Printf("record: %s\n", path)
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(2)
}
