package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"repro/internal/convolution"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/lulesh"
	"repro/internal/mpi"
	"repro/internal/pop"
	"repro/internal/prof"
	"repro/internal/sched"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/verify"
	"repro/internal/waitstate"
)

// countTool is the benchmark's own mpi.Tool: it counts every hook event
// and the bytes sent, attached through the runtime's PMPI-style hook layer
// next to the workload's tools.
type countTool struct {
	mpi.BaseTool
	events, bytes atomic.Int64
}

func (t *countTool) SectionEnter(*mpi.Comm, string, float64, *mpi.ToolData) { t.events.Add(1) }
func (t *countTool) SectionLeave(*mpi.Comm, string, float64, *mpi.ToolData) { t.events.Add(1) }
func (t *countTool) Pcontrol(*mpi.Comm, int, float64)                       { t.events.Add(1) }
func (t *countTool) MessageRecv(*mpi.Comm, int, int, int, float64, mpi.MatchInfo) {
	t.events.Add(1)
}
func (t *countTool) CollectiveBegin(*mpi.Comm, string, float64) { t.events.Add(1) }
func (t *countTool) CollectiveEnd(*mpi.Comm, string, float64)   { t.events.Add(1) }
func (t *countTool) MessageSent(_ *mpi.Comm, _, _, bytes int, _ float64) {
	t.events.Add(1)
	t.bytes.Add(int64(bytes))
}

// tracedSweepOut is what one traced sweep measured.
type tracedSweepOut struct {
	events, bytes int64
	traceEvents   int
	pointSecs     float64 // Σ per-point host seconds
	runSecs       float64 // Σ seconds inside the simulation calls
}

// seqCache memoizes the sequential baseline per configuration the way the
// experiments package does, so only the first traced sweep pays for it.
// Traced sweeps run one after another, so it needs no lock.
var seqCache = map[string]float64{}

func seqBaseline(t *tracer, parent *span, params convolution.Params, model string, run func() (float64, error)) (float64, error) {
	key := fmt.Sprintf("%+v/%s", params, model)
	if v, ok := seqCache[key]; ok {
		return v, nil
	}
	var seq float64
	var err error
	t.around(parent, "seq.baseline", func() { seq, err = run() })
	if err == nil {
		seqCache[key] = seq
	}
	return seq, err
}

// tracedExtreme runs the E12 sweep point by point: the same configuration
// experiments.RunConvolution builds, with the counting tool added.
func tracedExtreme(t *tracer, o *outcome, seed uint64) (*tracedSweepOut, error) {
	opts := extremeOptions(seed)
	params := convolution.Params{
		Width: 5616, Height: 3744,
		Steps: opts.Steps, Scale: opts.Scale, Seed: opts.Seed, SkipKernel: true,
	}
	root := t.root("sweep")
	defer t.end(root)
	seq, err := seqBaseline(t, root, params, opts.Model.Name, func() (float64, error) {
		_, s, err := convolution.Sequential(params, opts.Model)
		return s, err
	})
	if err != nil {
		return nil, err
	}
	counts := &countTool{}
	type point struct {
		wall        float64
		totals      map[string]float64
		secs, inRun float64
	}
	pool := t.open(root, "sched.map")
	pts, err := sched.Map(sched.Workers(0), len(opts.Ps), func(i int) (point, error) {
		sp := t.open(pool, "point")
		defer t.end(sp)
		start := time.Now()
		profiler := prof.New()
		cfg := mpi.Config{
			Ranks: opts.Ps[i], Model: opts.Model, Seed: opts.Seed,
			Tools: []mpi.Tool{profiler, counts}, Timeout: 10 * time.Minute, Lazy: opts.Lazy,
		}
		var runErr error
		t.around(sp, "mpi.run", func() { _, runErr = convolution.Run2D(cfg, params) })
		inRun := time.Since(start).Seconds()
		if runErr != nil {
			return point{}, runErr
		}
		var p *prof.Profile
		t.around(sp, "prof.result", func() { p, runErr = profiler.Result() })
		if runErr != nil {
			return point{}, runErr
		}
		pt := point{wall: p.WallTime, totals: map[string]float64{}, inRun: inRun}
		for _, label := range convolution.Labels() {
			if s := p.Section(label); s != nil {
				pt.totals[label] = s.TotalTime()
			}
		}
		pt.secs = time.Since(start).Seconds()
		return pt, nil
	})
	t.end(pool)
	if err != nil {
		return nil, err
	}
	out := &tracedSweepOut{events: counts.events.Load(), bytes: counts.bytes.Load()}
	for _, p := range pts {
		out.pointSecs += p.secs
		out.runSecs += p.inRun
	}
	t.around(root, "core.bounds", func() {
		study, err := core.NewStudy(seq)
		if err != nil {
			o.verdict("study.build", false, "%v", err)
			return
		}
		for i, p := range pts {
			if err := study.AddPoint(opts.Ps[i], p.wall, p.totals); err != nil {
				o.verdict("study.build", false, "%v", err)
				return
			}
		}
		err = study.Validate()
		o.verdict("study.validate", err == nil, "%v", err)
		for _, p := range opts.Ps {
			sp, err1 := study.SpeedupAt(p)
			bounds, err2 := study.BoundsAt(p)
			ok := err1 == nil && err2 == nil
			for _, b := range bounds {
				ok = ok && sp <= b*(1+tolerance)
			}
			o.verdict("eq6.bounds", ok, "p=%d speedup %g bounds %v (%v %v)", p, sp, bounds, err1, err2)
		}
	})
	return out, nil
}

// tracedHybrid runs the Fig. 9 sweep cell by cell with the tool chain
// experiments.RunHybrid attaches (profiler, verifier, trace collector,
// telemetry) plus the counting tool, then the offline analyses the sweep
// runs per cell.
func tracedHybrid(t *tracer, o *outcome, seed uint64) (*tracedSweepOut, error) {
	opts := hybridOptions(seed)
	root := t.root("sweep")
	defer t.end(root)
	counts := &countTool{}
	type cell struct{ ranks, threads int }
	var cells []cell
	for _, r := range opts.Ranks {
		for _, th := range opts.Threads {
			cells = append(cells, cell{r, th})
		}
	}
	type point struct {
		wall        float64
		totals      map[string]float64
		secs, inRun float64
		traceEvents int
		diag        lulesh.Diagnostics
		factorsBad  string
		violations  int
	}
	pool := t.open(root, "sched.map")
	pts, err := sched.Map(sched.Workers(0), len(cells), func(i int) (point, error) {
		sp := t.open(pool, "point")
		defer t.end(sp)
		start := time.Now()
		cfg, params, err := luleshCell(opts, cells[i].ranks, cells[i].threads)
		if err != nil {
			return point{}, err
		}
		profiler := prof.New()
		ver := verify.New()
		col := trace.NewCollector(4 << 20)
		col.Messages, col.Collectives, col.Omp = true, true, true
		tele := telemetry.New(telemetry.Options{})
		cfg.Tools = []mpi.Tool{profiler, ver, col, tele, counts}
		var res *lulesh.Result
		t.around(sp, "mpi.run", func() { res, err = lulesh.Run(cfg, params) })
		inRun := time.Since(start).Seconds()
		if err != nil {
			return point{}, err
		}
		pt := point{totals: map[string]float64{}, inRun: inRun, diag: res.Diag}
		var p *prof.Profile
		t.around(sp, "prof.result", func() { p, err = profiler.Result() })
		if err != nil {
			return point{}, err
		}
		pt.wall = p.WallTime
		for _, label := range lulesh.Sections() {
			if s := p.Section(label); s != nil {
				pt.totals[label] = s.TotalTime()
			}
		}
		var events []trace.Event
		t.around(sp, "trace.events", func() { events = col.Buffer().Events() })
		pt.traceEvents = len(events)
		var a *waitstate.Analysis
		t.around(sp, "waitstate.analyze", func() { a, err = waitstate.Analyze(events, waitstate.Options{}) })
		if err != nil {
			return point{}, err
		}
		t.around(sp, "pop.tree", func() {
			if b := a.Binding(); b != nil {
				if eff := pop.FromAnalysis(a, pop.Options{}).Section(b.Section); eff != nil {
					pt.factorsBad = factorsOutOfRange(eff.Factors)
				}
			}
		})
		t.around(sp, "telemetry.snapshot", func() { _ = tele.Snapshot() })
		t.around(sp, "verify.report", func() { pt.violations = len(ver.Violations()) })
		pt.secs = time.Since(start).Seconds()
		return pt, nil
	})
	t.end(pool)
	if err != nil {
		return nil, err
	}
	out := &tracedSweepOut{events: counts.events.Load(), bytes: counts.bytes.Load()}
	pinnedHash := pins().FieldHash
	var base float64
	for i, p := range pts {
		out.pointSecs += p.secs
		out.runSecs += p.inRun
		out.traceEvents += p.traceEvents
		name := fmt.Sprintf("%dx%d", cells[i].ranks, cells[i].threads)
		hash := fmt.Sprintf("%016x", p.diag.FieldHash)
		o.verdict("lulesh.hash.pinned", hash == pinnedHash, "%s: field hash %s, pinned %s", name, hash, pinnedHash)
		drift := math.Abs(p.diag.Mass1-p.diag.Mass0) / p.diag.Mass0
		o.verdict("lulesh.mass", drift <= 1e-9, "%s: mass %g -> %g", name, p.diag.Mass0, p.diag.Mass1)
		o.verdict("pop.range", p.factorsBad == "", "%s: %s", name, p.factorsBad)
		o.verdict("verify.clean", p.violations == 0, "%s: %d verifier violations", name, p.violations)
		if cells[i] == (cell{1, 1}) {
			base = p.wall
		}
	}
	t.around(root, "core.bounds", func() {
		bad := ""
		for i, p := range pts {
			sp, err := core.Speedup(base, p.wall)
			if err != nil {
				bad = err.Error()
				break
			}
			for label, total := range p.totals {
				if total <= 0 {
					continue
				}
				b, err := core.PartialBoundFromTotal(base, total, cells[i].ranks)
				if err != nil || sp > b*(1+tolerance) {
					bad = fmt.Sprintf("%dx%d %s: speedup %g bound %g %v", cells[i].ranks, cells[i].threads, label, sp, b, err)
				}
			}
		}
		o.verdict("eq6.bounds", bad == "", "%s", bad)
	})
	return out, nil
}

// luleshCell is the (mpi.Config, lulesh.Params) experiments.RunHybrid
// builds for one cell, without tools.
func luleshCell(o experiments.HybridOptions, ranks, threads int) (mpi.Config, lulesh.Params, error) {
	var s int
	for _, c := range lulesh.Table7() {
		if c.Ranks == ranks {
			s = c.S
		}
	}
	if s == 0 {
		return mpi.Config{}, lulesh.Params{}, fmt.Errorf("no Table 7 size for %d ranks", ranks)
	}
	scale := 1
	for d := 1; d <= o.MaxScale; d++ {
		if s%d == 0 && s/d >= 2 {
			scale = d
		}
	}
	params := lulesh.Params{S: s, Steps: o.Steps, Threads: threads, Scale: scale, SedovEnergy: 1e4}
	cfg := mpi.Config{Ranks: ranks, ThreadsPerRank: threads, Model: o.Model, Seed: o.Seed, Timeout: 10 * time.Minute}
	return cfg, params, nil
}

// tracedSweep is the traced run of a sweep workload: a few untraced sweeps
// for the overhead ratio, the traced sweeps under the CPU profiler, then
// the serve probe and the layer ledger.
func tracedSweep(spec *sweepSpec) func(uint64, float64) (*outcome, error) {
	return func(seed uint64, seconds float64) (*outcome, error) {
		o := newOutcome()
		t := newTracer()
		var plain []float64
		for i := 0; i < 4; i++ {
			t0 := time.Now()
			if _, err := spec.run(seed, 0); err != nil {
				return nil, err
			}
			if i > 0 { // the first is the warm-up
				plain = append(plain, time.Since(t0).Seconds())
			}
		}
		var outs []*tracedSweepOut
		var traced []float64
		g0 := readGo()
		cpu, err := cpuProfile(func() error {
			start := time.Now()
			for len(traced) < 3 || time.Since(start).Seconds() < seconds/2 {
				t0 := time.Now()
				out, err := spec.traced(t, o, seed)
				if err != nil {
					return err
				}
				traced = append(traced, time.Since(t0).Seconds())
				outs = append(outs, out)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		goMetrics(o, g0, readGo(), float64(len(outs)))
		first := outs[0]
		for i, out := range outs[1:] {
			same := out.events == first.events && out.bytes == first.bytes && out.traceEvents == first.traceEvents
			o.verdict("counts.repeat", same, "sweep %d counted %d events %d bytes %d trace events, first %d %d %d",
				i+2, out.events, out.bytes, out.traceEvents, first.events, first.bytes, first.traceEvents)
		}
		var busy, rate []float64
		workers := float64(sched.Workers(0))
		for i, out := range outs {
			busy = append(busy, out.pointSecs/(workers*traced[i]))
			rate = append(rate, float64(out.events)/out.runSecs)
		}
		o.Attempted += len(outs) * spec.points
		o.set("mpi.events", "count", float64(first.events))
		o.set("mpi.bytes", "B", float64(first.bytes))
		o.set("mpi.events_per_s", "1/s", median(rate))
		o.set("trace.events", "count", float64(first.traceEvents))
		o.set("sched.busy_share", "ratio", median(busy))
		o.set("trace.overhead", "ratio", median(traced)/median(plain))
		o.Samples["sweep_s.traced"] = summarize(traced)
		o.Samples["sweep_s.untraced"] = summarize(plain)
		layerMetrics(o, spec.name, cpu, float64(len(outs)))
		writeSpans(o, t, spec.name, seed)

		// The sweeps have no service: their serve.* rows come from a small
		// fixed probe through the same generator.
		s := newStormRun(seed)
		serveLayer(o, s, newTracer(), []stormPhase{{60, rateLow}})
		return o, runLedger(o)
	}
}

// layerMetrics turns CPU seconds per layer into self time per unit (sweep
// or job) and shares, and records whether the workload's prediction held.
func layerMetrics(o *outcome, workload string, cpu map[string]float64, units float64) {
	total := 0.0
	for _, v := range cpu {
		total += v
	}
	// Self time goes to the record, not the metrics: a layer a workload
	// never enters would report a time of exactly zero on every run.
	self := map[string]float64{}
	for _, l := range layers {
		self[l] = cpu[l] / units
		share := 0.0
		if total > 0 {
			share = cpu[l] / total
		}
		o.set("share."+l, "ratio", share)
	}
	o.Notes["self_cpu_s_per_unit"] = self
	fmt.Printf("layer self CPU seconds per %s: %v\n", map[bool]string{true: "job", false: "sweep"}[workload == "serve-storm"], self)
	s := func(names ...string) (sum float64) {
		for _, n := range names {
			sum += cpu[n]
		}
		return sum
	}
	var holds bool
	var claim string
	switch workload {
	case "sweep-extreme":
		claim = "runtime (mpi) self time exceeds every other repository layer"
		holds = true
		for _, l := range []string{"tools", "analysis", "kernels", "experiments", "sched", "serve", "bench"} {
			holds = holds && cpu["mpi"] > cpu[l]
		}
	case "hybrid-observed":
		claim = "kernels + tools + analysis exceed mpi + experiments + sched + serve"
		holds = s("kernels", "tools", "analysis") > s("mpi", "experiments", "sched", "serve")
	case "serve-storm":
		claim = "serve + tools exceed mpi + kernels + analysis + experiments + sched"
		holds = s("serve", "tools") > s("mpi", "kernels", "analysis", "experiments", "sched")
	}
	o.Notes["prediction"] = map[string]any{"claim": claim, "holds": holds, "cpu_seconds": cpu}
	if !holds {
		fmt.Printf("prediction MISMATCH on %s: %s does not hold (cpu seconds %v)\n", workload, claim, cpu)
	}
}

// writeSpans writes the span file and records each span name's self time.
func writeSpans(o *outcome, t *tracer, workload string, seed uint64) {
	spans := t.snapshot()
	self := selfTimes(spans)
	o.Notes["span_self_s"] = self
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		o.Notes["spans_error"] = err.Error()
		return
	}
	path := filepath.Join(outDir, fmt.Sprintf("spans-%s-seed%d.json", workload, seed))
	data, err := json.Marshal(struct {
		Workload string             `json:"workload"`
		Seed     uint64             `json:"seed"`
		SelfS    map[string]float64 `json:"self_seconds_by_name"`
		Spans    []span             `json:"spans"`
	}{workload, seed, self, spans})
	if err == nil {
		err = os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		o.Notes["spans_error"] = err.Error()
		return
	}
	o.Notes["spans_file"] = path
}

// goSnap is a reading of the Go runtime's own metrics.
type goSnap struct {
	gcCPU, totalCPU, allocBytes, allocObjs float64
	sched                                  *metrics.Float64Histogram
}

func readGo() goSnap {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
		{Name: "/sched/latencies:seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	g := goSnap{gcCPU: val(0), totalCPU: val(1), allocBytes: val(2), allocObjs: val(3)}
	if s[4].Value.Kind() == metrics.KindFloat64Histogram {
		g.sched = s[4].Value.Float64Histogram()
	}
	return g
}

// goMetrics reports the Go runtime's GC share, allocation per unit and
// scheduling-latency p99 between two readings.
func goMetrics(o *outcome, a, b goSnap, units float64) {
	share := 0.0
	if d := b.totalCPU - a.totalCPU; d > 0 {
		share = (b.gcCPU - a.gcCPU) / d
	}
	o.set("go.gc_cpu_share", "ratio", share)
	o.set("go.alloc_mb", "MiB", (b.allocBytes-a.allocBytes)/(1<<20)/units)
	o.set("go.allocs", "count", (b.allocObjs-a.allocObjs)/units)
	o.set("go.sched_latency_p99_us", "us", 1e6*histQuantile(a.sched, b.sched, 0.99))
}

// histQuantile is the q-quantile of the difference of two cumulative
// histograms, interpolated linearly inside the bucket it falls in.
func histQuantile(a, b *metrics.Float64Histogram, q float64) float64 {
	if a == nil || b == nil || len(a.Counts) != len(b.Counts) {
		return 0
	}
	counts := make([]float64, len(b.Counts))
	total := 0.0
	for i := range counts {
		counts[i] = float64(b.Counts[i] - a.Counts[i])
		total += counts[i]
	}
	return bucketQuantile(b.Buckets, counts, total, q)
}

// bucketQuantile interpolates the q-quantile from per-bucket counts, where
// bucket i spans [bounds[i], bounds[i+1]).
func bucketQuantile(bounds, counts []float64, total, q float64) float64 {
	if total <= 0 {
		return 0
	}
	rank, cum := q*total, 0.0
	for i, c := range counts {
		if c > 0 && cum+c >= rank {
			lo, hi := bounds[i], bounds[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(rank-cum)/c
		}
		cum += c
	}
	return bounds[len(bounds)-1]
}
