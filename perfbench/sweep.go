package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/lulesh"
	"repro/internal/pop"
)

// sweepSpec is one sweep workload: how to run the program's own sweep for
// a seed at a worker count, and how to check what it produced.
type sweepSpec struct {
	name   string
	points int
	// run executes the sweep and renders its CSV — the unit sweep_s times.
	run func(seed uint64, jobs int) (*sweepOut, error)
	// invariants runs once per run, outside the timed loop, for checks the
	// sweep result does not expose (LULESH's physical diagnostics).
	invariants func(o *outcome, seed uint64)
	// traced runs the same sweep point by point from the benchmark, with
	// spans and the counting tool attached (see traced.go).
	traced func(t *tracer, o *outcome, seed uint64) (*tracedSweepOut, error)
}

// sweepOut is one sweep's CSV plus the checks its result supports.
type sweepOut struct {
	csv    []byte
	failed int // sweep points that degraded to an error cell
	check  func(o *outcome)
}

// programSeed maps the workload seed onto the experiment's machine-noise
// seed; the benchmark seed 0 reproduces the paper presets' 2017.
func programSeed(seed uint64) uint64 { return 2017 + seed }

var extremeSweep = &sweepSpec{
	name:   "sweep-extreme",
	points: len(experiments.ExtremeConvOptions().Ps),
	run: func(seed uint64, jobs int) (*sweepOut, error) {
		o := extremeOptions(seed)
		o.Jobs = jobs
		res, err := experiments.RunConvolution(o)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			return nil, err
		}
		out := &sweepOut{csv: buf.Bytes(), check: func(oc *outcome) { checkConv(oc, res) }}
		for _, p := range res.Points {
			if p.Err != "" {
				out.failed++
			}
		}
		return out, nil
	},
	invariants: func(*outcome, uint64) {},
	traced:     tracedExtreme,
}

// extremeOptions is the E12 configuration: 1k/4k/10k declared ranks, 2-D
// decomposition, lazy sharded runtime, only the profiler attached.
func extremeOptions(seed uint64) experiments.ConvOptions {
	o := experiments.ExtremeConvOptions()
	o.Seed = programSeed(seed)
	return o
}

var hybridSweep = &sweepSpec{
	name:   "hybrid-observed",
	points: len(experiments.PaperKNLOptions().Ranks) * len(experiments.PaperKNLOptions().Threads),
	run: func(seed uint64, jobs int) (*sweepOut, error) {
		o := hybridOptions(seed)
		o.Jobs = jobs
		res, err := experiments.RunHybrid(o)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		if err := res.WriteCSV(&buf); err != nil {
			return nil, err
		}
		out := &sweepOut{csv: buf.Bytes(), check: func(oc *outcome) { checkHybrid(oc, res) }}
		for _, p := range res.Points {
			if p.Err != "" {
				out.failed++
			}
		}
		return out, nil
	},
	invariants: checkLulesh,
	traced:     tracedHybrid,
}

// hybridOptions is the Fig. 9 KNL sweep with every observer on.
func hybridOptions(seed uint64) experiments.HybridOptions {
	o := experiments.PaperKNLOptions()
	o.Seed = programSeed(seed)
	o.Diagnose, o.Profile, o.Verify = true, true, true
	return o
}

// tolerance is the relative slack of the Eq. 6 comparison: the bound and
// the speedup are computed along different floating-point paths.
const tolerance = 1e-9

// checkConv applies the convolution sweep's output gate: the study is
// structurally valid, no point's speedup beats any section's Eq. 6 bound,
// and any POP factors lie in [0, 1].
func checkConv(o *outcome, res *experiments.ConvResult) {
	err := res.Study.Validate()
	o.verdict("study.validate", err == nil, "%v", err)
	bad := ""
	for _, p := range res.Points {
		if p.Err != "" {
			continue
		}
		sp, err := res.Study.SpeedupAt(p.P)
		if err != nil {
			bad = err.Error()
			break
		}
		bounds, err := res.Study.BoundsAt(p.P)
		if err != nil {
			bad = err.Error()
			break
		}
		for label, b := range bounds {
			if sp > b*(1+tolerance) {
				bad = fmt.Sprintf("p=%d speedup %g > %s bound %g", p.P, sp, label, b)
			}
		}
		if p.Diag != nil && p.Diag.Eff != nil {
			if msg := factorsOutOfRange(p.Diag.Eff.Factors); msg != "" {
				bad = fmt.Sprintf("p=%d: %s", p.P, msg)
			}
		}
	}
	o.verdict("eq6.bounds+pop.range", bad == "", "%s", bad)
}

// checkHybrid applies the hybrid sweep's gate: against the one-rank,
// one-thread cell as the sequential baseline, no cell's speedup beats any
// section's Eq. 6 bound; POP factors lie in [0, 1]; the verifier found
// nothing.
func checkHybrid(o *outcome, res *experiments.HybridResult) {
	base := res.Point(1, 1)
	bad := ""
	if base == nil || base.Err != "" || base.Wall <= 0 {
		bad = "no healthy 1x1 baseline cell"
	}
	for i := 0; bad == "" && i < len(res.Points); i++ {
		p := &res.Points[i]
		if p.Err != "" {
			continue
		}
		sp, err := core.Speedup(base.Wall, p.Wall)
		if err != nil {
			bad = err.Error()
			break
		}
		for label, total := range p.Totals {
			if total <= 0 {
				continue
			}
			b, err := core.PartialBoundFromTotal(base.Wall, total, p.Ranks)
			if err != nil {
				bad = err.Error()
				break
			}
			if sp > b*(1+tolerance) {
				bad = fmt.Sprintf("%dx%d speedup %g > %s bound %g", p.Ranks, p.Threads, sp, label, b)
			}
		}
		if p.Diag != nil && p.Diag.Eff != nil {
			if msg := factorsOutOfRange(p.Diag.Eff.Factors); msg != "" {
				bad = fmt.Sprintf("%dx%d: %s", p.Ranks, p.Threads, msg)
			}
		}
	}
	o.verdict("eq6.bounds+pop.range", bad == "", "%s", bad)
	o.verdict("verify.clean", len(res.Verify) == 0, "%d verifier violations", len(res.Verify))
}

func factorsOutOfRange(f *pop.Factors) string {
	if f == nil {
		return ""
	}
	for name, v := range map[string]float64{
		"parallel": f.Parallel, "load_balance": f.LoadBalance, "comm": f.Comm,
		"transfer": f.Transfer, "serialisation": f.Serialisation, "thread": f.Thread,
		"omp_region": f.OmpRegion, "serial_region": f.SerialRegion, "total": f.Total,
	} {
		if !(v >= 0 && v <= 1) {
			return fmt.Sprintf("POP factor %s = %g outside [0,1]", name, v)
		}
	}
	return ""
}

// luleshCells are the (ranks, threads) cells whose physics is re-run for
// the invariant check: every rank count of the sweep, single- and
// multi-threaded.
var luleshCells = [][2]int{{1, 1}, {8, 4}, {27, 1}, {27, 64}}

// checkLulesh runs each cell twice with the sweep's parameters and checks
// that mass is conserved and the final density field hash repeats, and
// that the hash is the same for every decomposition of the same mesh.
func checkLulesh(o *outcome, seed uint64) {
	var hashes []uint64
	for _, cell := range luleshCells {
		cfg, params, err := luleshCell(hybridOptions(seed), cell[0], cell[1])
		if err != nil {
			o.verdict("lulesh.setup", false, "%v", err)
			return
		}
		var first lulesh.Diagnostics
		for rep := 0; rep < 2; rep++ {
			res, err := lulesh.Run(cfg, params)
			if err != nil {
				o.verdict("lulesh.run", false, "%dx%d: %v", cell[0], cell[1], err)
				return
			}
			d := res.Diag
			drift := math.Abs(d.Mass1-d.Mass0) / d.Mass0
			o.verdict("lulesh.mass", drift <= 1e-9, "%dx%d: mass %g -> %g", cell[0], cell[1], d.Mass0, d.Mass1)
			if rep == 0 {
				first = d
				hashes = append(hashes, d.FieldHash)
				continue
			}
			o.verdict("lulesh.hash.repeat", d.FieldHash == first.FieldHash,
				"%dx%d: field hash %x then %x", cell[0], cell[1], first.FieldHash, d.FieldHash)
		}
	}
	same := true
	for _, h := range hashes {
		same = same && h == hashes[0]
	}
	o.verdict("lulesh.hash.decomposition", same, "field hashes differ across decompositions: %x", hashes)
	// The physics does not depend on the machine-noise seed, so the final
	// density field is pinned for every seed.
	got := fmt.Sprintf("%016x", hashes[0])
	o.Notes["lulesh_field_hash"] = got
	if want := pins().FieldHash; want != "" {
		o.verdict("lulesh.hash.pinned", got == want, "field hash %s, pinned %s", got, want)
	}
}

//go:embed digests.json
var digestsJSON []byte

// pinFile is digests.json: the sweeps' CSV digests for the committed seed
// and the LULESH field hash, which holds for every seed.
type pinFile struct {
	CSV map[string]struct {
		Seed   uint64 `json:"seed"`
		SHA256 string `json:"csv_sha256"`
	} `json:"sweep_csv"`
	FieldHash string `json:"lulesh_field_hash"`
}

func pins() pinFile {
	var p pinFile
	if err := json.Unmarshal(digestsJSON, &p); err != nil {
		panic(fmt.Sprintf("digests.json: %v", err)) // embedded at build time
	}
	return p
}

// pinned returns the committed CSV digest of a sweep for a seed ("" when
// none is pinned for that seed).
func pinned(workload string, seed uint64) string {
	if p, ok := pins().CSV[workload]; ok && p.Seed == seed {
		return p.SHA256
	}
	return ""
}

// firstDiff names the first cell in which two renderings of a sweep CSV
// differ, by row, column name and both values.
func firstDiff(want, got []byte) string {
	a, b := strings.Split(string(want), "\n"), strings.Split(string(got), "\n")
	header := strings.Split(a[0], ",")
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] == b[i] {
			continue
		}
		ca, cb := strings.Split(a[i], ","), strings.Split(b[i], ",")
		for j := 0; j < len(ca) && j < len(cb); j++ {
			if ca[j] != cb[j] {
				col := fmt.Sprintf("column %d", j+1)
				if j < len(header) {
					col = header[j]
				}
				return fmt.Sprintf("first difference: row %d %s: %s, first sweep %s", i, col, cb[j], ca[j])
			}
		}
		return fmt.Sprintf("first difference: row %d has %d cells, first sweep %d", i, len(cb), len(ca))
	}
	return fmt.Sprintf("%d lines, first sweep %d", len(b), len(a))
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// plainSweep is the untraced run of a sweep workload: cold set-ups in
// child processes, one warm-up sweep, then sweeps alternating between the
// default worker count and -j 1 until the budget is spent. Every sweep's
// CSV must equal the first one byte for byte.
func plainSweep(spec *sweepSpec) func(uint64, float64) (*outcome, error) {
	return func(seed uint64, seconds float64) (*outcome, error) {
		o := newOutcome()
		setup, err := measureSetup(spec.name, seed)
		if err != nil {
			return nil, err
		}
		warm, err := spec.run(seed, 0)
		if err != nil {
			return nil, err
		}
		want := digest(warm.csv)
		o.Notes["csv_sha256"] = want
		if pin := pinned(spec.name, seed); pin != "" {
			o.verdict("csv.pinned", want == pin, "CSV digest %s, pinned %s", want, pin)
		}
		record := func(out *sweepOut, jobs int) {
			o.Attempted += spec.points
			o.Failed += out.failed
			got := digest(out.csv)
			o.verdict(fmt.Sprintf("csv.equal.j%d", jobs), got == want, "CSV digest %s, first sweep %s; %s",
				got, want, firstDiff(warm.csv, out.csv))
			out.check(o)
		}
		record(warm, 0)
		spec.invariants(o, seed)

		var high, low []float64
		start := time.Now()
		for time.Since(start).Seconds() < seconds || len(low) < 3 {
			for _, jobs := range []int{0, 1} {
				t0 := time.Now()
				out, err := spec.run(seed, jobs)
				if err != nil {
					return nil, err
				}
				secs := time.Since(t0).Seconds()
				if jobs == 0 {
					high = append(high, secs)
				} else {
					low = append(low, secs)
				}
				record(out, jobs)
			}
		}
		sweepMetrics(o, setup, high, low)
		return o, nil
	}
}

// sweepMetrics fills the end-to-end metrics of a sweep workload. On a
// sweep a job is one whole sweep as a user submits it: `.high` is the
// default worker count (every worker busy), `.low` is -j 1.
func sweepMetrics(o *outcome, setup, high, low []float64) {
	o.Samples["setup_s"] = summarize(setup)
	o.Samples["sweep_s.default_jobs"] = summarize(high)
	o.Samples["sweep_s.j1"] = summarize(low)
	o.set("setup_s", "s", median(setup))
	o.set("sweep_s", "s", median(high))
	o.set("job_p50_ms.high", "ms", 1e3*median(high))
	o.set("job_p50_ms.low", "ms", 1e3*median(low))
	o.set("peak_rss_mb", "MiB", peakRSSMB())
}

// setupSweep is the cold first iteration of a sweep workload: the first
// sweep of a fresh process, sequential-baseline cache fill included.
func setupSweep(spec *sweepSpec) func(uint64) error {
	return func(seed uint64) error {
		_, err := spec.run(seed, 0)
		return err
	}
}
