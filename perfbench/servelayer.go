package main

import (
	"bufio"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"repro/internal/sched"
)

// stormPhase is one fixed-rate phase of a traced storm: n submissions at
// rate jobs/s (rate 0 submits them at once).
type stormPhase struct {
	n    int
	rate float64
}

// prometheus reads the service's counters from its /metrics exposition.
func (c *stormClient) prometheus() map[string]float64 {
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	counters := map[string]float64{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			counters[name] = v
		}
	}
	return counters
}

// serveLayer pushes fixed phases through the service with spans and job
// documents on, and reports the serve.* and load.* per-layer rows. It
// returns the sched.busy_share of the service's worker slots: Σ job run
// seconds ÷ (slots × phase seconds).
func serveLayer(o *outcome, s *stormRun, t *tracer, phases []stormPhase) float64 {
	s.c.spans = t
	defer func() { s.c.spans = nil }()
	before := s.c.prometheus()
	var submit, late, runMS, queueMS []float64
	repeats, phaseSecs, runSecs := 0, 0.0, 0.0
	for _, p := range phases {
		ph := s.phase(p.n, p.rate)
		tally(o, ph.stats())
		phaseSecs += ph.end.Sub(ph.start).Seconds()
		late = append(late, ph.late...)
		seen := map[string]bool{}
		for _, r := range ph.recs {
			submit = append(submit, r.submitUs)
			if r.req.repeat {
				repeats++
			}
			// A job's own run: the first submission of an id that executed
			// (not a cache hit; later submissions of the id are dedups).
			if !r.finished || r.cacheHit || seen[r.id] {
				continue
			}
			seen[r.id] = true
			queueMS = append(queueMS, 1e3*r.queueS)
			run := r.done.Sub(r.sent).Seconds() - r.queueS
			runSecs += run
			if !r.req.faulted {
				runMS = append(runMS, 1e3*run)
			}
		}
	}
	after := s.c.prometheus()
	delta := func(name string) float64 { return after[name] - before[name] }
	ratio := 0.0
	if repeats > 0 {
		ratio = (delta("serve_cache_hits_total") + delta("serve_jobs_deduped_total")) / float64(repeats)
	}
	o.set("serve.submit_us", "us", median(submit))
	// The queue waits are the service's own measurement, read per job from
	// /jobs/{id}: the /metrics histogram's first bucket is 1 ms wide, and
	// most waits fall inside it, so a median read from it would come out
	// the same on every run.
	o.set("serve.queue_wait_p50_ms", "ms", median(queueMS))
	o.set("serve.queue_wait_p99_ms", "ms", quantile(queueMS, 0.99))
	o.set("serve.run_ms", "ms", median(runMS))
	o.set("serve.cache_hit_ratio", "ratio", ratio)
	o.set("serve.retries", "count", delta("serve_jobs_retried_total"))
	o.set("serve.shed", "count", delta("serve_jobs_shed_total"))
	o.set("load.late_p99_ms", "ms", quantile(late, 0.99))
	o.Samples["serve.submit_us"] = summarize(submit)
	o.Samples["serve.run_ms"] = summarize(runMS)
	return runSecs / (float64(sched.Workers(0)) * phaseSecs)
}

// tracedStorm is the traced serve-storm run: a fixed number of phases, so
// the counts repeat exactly, under the CPU profiler, with untraced and
// traced bursts for the overhead ratio.
func tracedStorm(seed uint64, seconds float64) (*outcome, error) {
	o := newOutcome()
	t := newTracer()
	s := newStormRun(seed)
	s.c.run(requestStream(s.rng, 60, &s.next), rateLow, 60*time.Second) // warm-up
	burst := func() float64 {
		ph := s.c.run(requestStream(s.rng, burstJobs, &s.next), 0, 60*time.Second)
		return ph.end.Sub(ph.start).Seconds()
	}
	var plain, traced []float64
	for i := 0; i < 3; i++ {
		plain = append(plain, burst())
	}
	var phases []stormPhase
	for i := 0; i < 2; i++ {
		phases = append(phases,
			stormPhase{int(rateLow * phaseSeconds), rateLow},
			stormPhase{int(rateHigh * phaseSeconds), rateHigh})
	}
	jobs := 0.0
	for _, p := range phases {
		jobs += float64(p.n)
	}
	var busy float64
	g0 := readGo()
	cpu, err := cpuProfile(func() error {
		busy = serveLayer(o, s, t, phases)
		s.c.spans = t
		for i := 0; i < 3; i++ {
			traced = append(traced, burst())
		}
		s.c.spans = nil
		return nil
	})
	if err != nil {
		return nil, err
	}
	goMetrics(o, g0, readGo(), jobs)
	layerMetrics(o, "serve-storm", cpu, jobs)
	writeSpans(o, t, "serve-storm", seed)

	counts := &countTool{}
	events, runSecs, err := s.referenceCheck(o, counts)
	if err != nil {
		return nil, err
	}
	o.set("mpi.events", "count", float64(counts.events.Load()))
	o.set("mpi.bytes", "B", float64(counts.bytes.Load()))
	o.set("mpi.events_per_s", "1/s", float64(counts.events.Load())/runSecs)
	o.set("trace.events", "count", float64(events))
	o.set("sched.busy_share", "ratio", busy)
	o.set("trace.overhead", "ratio", median(traced)/median(plain))
	o.Samples["sweep_s.traced"] = summarize(traced)
	o.Samples["sweep_s.untraced"] = summarize(plain)
	return o, runLedger(o)
}
