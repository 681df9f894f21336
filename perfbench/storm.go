package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/mpi"
	"repro/internal/serve"
	"repro/internal/trace"
)

// The serve-storm workload drives the service exactly as cmd/secmon builds
// it (Observe on, default queue, cache and retry settings) through its
// HTTP handler, in process and without sockets. One generator goroutine
// submits on a fixed schedule (an open loop); one goroutine per accepted
// job waits on Job.Wait and stamps its completion.
const (
	// rateLow and rateHigh are the two fixed offered rates, in jobs/s,
	// both below the knee measured on a 2-vCPU host (see README.md).
	rateLow  = 60
	rateHigh = 120
	// phaseSeconds is the length of each fixed-rate phase; the phases
	// alternate until the run's budget is spent, the low-rate phase twice
	// as long so both collect about as many clean jobs.
	phaseSeconds = 2.0
	// burstsPerRound is how many bursts each round of phases adds to the
	// sweep_s sample; a burst ends with its slowest retry chain, so its
	// median needs many of them.
	burstsPerRound = 6
	// burstJobs is the size of the sweep submitted at once for sweep_s;
	// spread over the tenants it stays inside the default queue depth.
	burstJobs = 96
	// tenants is the number of tenant identities the stream cycles, the
	// service's default tenant capacity.
	tenants = 8
)

// stormReq is one generated submission.
type stormReq struct {
	query   string
	opts    experiments.LiveOptions // the clean configuration (no fault plan)
	key     string                  // opts identity, for the reference run
	faulted bool
	repeat  bool
}

// requestStream generates n submissions from rng: about a fifth carry an
// armed fault plan (the service retries them), about a quarter repeat a
// recent clean configuration (cache hits or single-flight dedups), the
// rest are distinct. next hands out the simulation seeds, so no two
// streams of one run share a distinct configuration.
func requestStream(rng *rand.Rand, n int, next *uint64) []stormReq {
	var recent []stormReq
	out := make([]stormReq, 0, n)
	for i := 0; i < n; i++ {
		u := rng.Float64()
		if u >= 0.2 && u < 0.45 && len(recent) > 0 {
			r := recent[rng.Intn(len(recent))]
			r.repeat = true
			out = append(out, r)
			continue
		}
		*next++
		p := []int{2, 4, 8}[rng.Intn(3)]
		opts := experiments.LiveOptions{Experiment: "conv", Ranks: p, Steps: 4, Scale: 32, Seed: *next}
		r := stormReq{
			opts:  opts,
			key:   fmt.Sprintf("conv/p%d/s%d", p, *next),
			query: fmt.Sprintf("/run?exp=conv&p=%d&steps=4&scale=32&seed=%d&tenant=t%d", p, *next, i%tenants),
		}
		if u < 0.2 {
			r.faulted = true
			r.query += fmt.Sprintf("&fault=kill:rank=1,after=3&fault=delay:src=*,dst=*,prob=0.5,secs=1e-6&fault-seed=%d", *next)
		} else {
			recent = append(recent, r)
			if len(recent) > 32 {
				recent = recent[1:]
			}
		}
		out = append(out, r)
	}
	return out
}

// jobRec follows one submission to its end.
// Only the job's id, end state and result digest are kept once it ends,
// so the harness never holds a job the service has already forgotten.
type jobRec struct {
	req      *stormReq
	due      time.Time
	sent     time.Time // the handler returned
	done     time.Time
	status   int
	job      *serve.Job // nil once the job has ended
	id       string
	accepted bool
	finished bool
	state    serve.State
	csv      string  // SHA-256 of a Done job's result CSV
	submitUs float64 // the handler's /run call
	// Read from /jobs/{id} in traced mode only.
	queueS   float64
	cacheHit bool
}

// phase is the result of pushing one request stream through the service.
type phase struct {
	recs  []*jobRec
	late  []float64 // generator lateness, ms
	start time.Time
	end   time.Time // last completion
}

// stormClient is the load generator bound to one service.
type stormClient struct {
	svc *serve.Service
	h   http.Handler
	// spans, when set, records one span tree per job (traced mode).
	spans *tracer
}

func newStormClient() *stormClient {
	svc := serve.NewService(serve.Options{Observe: true})
	return &stormClient{svc: svc, h: serve.NewHandler(svc, serve.HandlerOptions{Logf: func(string, ...any) {}})}
}

// submit sends one /run through the handler and resolves the job.
func (c *stormClient) submit(r *jobRec) {
	rec := httptest.NewRecorder()
	t0 := time.Now()
	c.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, r.req.query, nil))
	r.sent = time.Now()
	r.submitUs = float64(r.sent.Sub(t0)) / float64(time.Microsecond)
	r.status = rec.Code
	if rec.Code != http.StatusAccepted && rec.Code != http.StatusOK {
		return
	}
	var doc struct {
		JobID string `json:"job_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err == nil {
		r.job = c.svc.Job(doc.JobID)
		r.id = doc.JobID
		r.accepted = r.job != nil
	}
}

// get serves one GET through the handler and decodes its JSON into v; a
// document that does not decode leaves v at its zero value.
func (c *stormClient) get(path string, v any) {
	rec := httptest.NewRecorder()
	c.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
	_ = json.Unmarshal(rec.Body.Bytes(), v)
}

// run pushes reqs through the service at rate jobs/s (rate <= 0 submits
// them all at once) and waits for every accepted job, at most budget.
func (c *stormClient) run(reqs []stormReq, rate float64, budget time.Duration) *phase {
	ph := &phase{recs: make([]*jobRec, len(reqs)), start: time.Now()}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	// Each waiter writes only its own record; wg.Wait orders those writes
	// before any read of the phase.
	var wg sync.WaitGroup
	for i := range reqs {
		r := &jobRec{req: &reqs[i], due: ph.start}
		if rate > 0 {
			r.due = ph.start.Add(time.Duration(float64(i) / rate * float64(time.Second)))
			if d := time.Until(r.due); d > 0 {
				time.Sleep(d)
			}
		}
		ph.late = append(ph.late, ms(time.Since(r.due)))
		ph.recs[i] = r
		var sp *span
		if c.spans != nil {
			sp = c.spans.root("serve.job")
			c.spans.around(sp, "serve.submit", func() { c.submit(r) })
		} else {
			c.submit(r)
		}
		if r.job == nil {
			if sp != nil {
				c.spans.end(sp)
			}
			continue
		}
		wg.Add(1)
		go func(r *jobRec, sp *span) {
			defer wg.Done()
			// Wait fails only when the budget runs out; the job is then not
			// terminal, and stats counts it as unanswered.
			wait := func() { _ = r.job.Wait(ctx) }
			if sp != nil {
				c.spans.around(sp, "serve.wait", wait)
			} else {
				wait()
			}
			now := time.Now()
			var doc struct {
				QueueSeconds float64 `json:"queue_seconds"`
				CacheHit     bool    `json:"cache_hit"`
			}
			if sp != nil {
				c.spans.around(sp, "serve.jobdoc", func() { c.get("/jobs/"+r.id, &doc) })
				c.spans.end(sp)
			}
			st := r.job.State()
			sum := ""
			if res := r.job.Result(); st == serve.Done && res != nil {
				sum = digest(res.CSV)
			}
			r.done, r.state, r.csv = now, st, sum
			r.queueS, r.cacheHit = doc.QueueSeconds, doc.CacheHit
			r.finished = st.Terminal()
			r.job = nil
		}(r, sp)
	}
	wg.Wait()
	ph.end = time.Now()
	return ph
}

// phaseStats tallies one phase: clean-job completion latency from the due
// time, and every way a submission can fail.
type phaseStats struct {
	clean        []float64 // ms, clean jobs that finished Done
	shed, failed int
	unanswered   int
	jobs         int
}

func (ph *phase) stats() phaseStats {
	var st phaseStats
	for _, r := range ph.recs {
		st.jobs++
		switch {
		case r.status == http.StatusTooManyRequests:
			st.shed++
			continue
		case !r.accepted:
			st.failed++
			continue
		case !r.finished:
			st.unanswered++
			continue
		case r.state != serve.Done:
			st.failed++
			continue
		}
		if !r.req.faulted {
			st.clean = append(st.clean, ms(r.done.Sub(r.due)))
		}
	}
	return st
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// stormRun is one full serve-storm: warm-up, the two fixed-rate phases and
// the burst sweeps, then the reference check.
type stormRun struct {
	c    *stormClient
	rng  *rand.Rand
	next uint64
	// checked are every phase whose results the reference check covers.
	checked []*phase
}

func newStormRun(seed uint64) *stormRun {
	return &stormRun{
		c:    newStormClient(),
		rng:  rand.New(rand.NewSource(int64(seed))),
		next: seed * 1_000_000,
	}
}

func (s *stormRun) phase(n int, rate float64) *phase {
	reqs := requestStream(s.rng, n, &s.next)
	ph := s.c.run(reqs, rate, 60*time.Second)
	s.checked = append(s.checked, ph)
	return ph
}

// tally folds a measured phase into the outcome's attempted/failed counts.
func tally(o *outcome, st phaseStats) {
	o.Attempted += st.jobs
	o.Failed += st.shed + st.failed + st.unanswered
}

// referenceCheck re-runs every distinct configuration behind a Done job
// directly with experiments.RunLive, with the trace collector the service
// attaches, and requires the job's result CSV to be byte-identical — for
// retried jobs too, whose retry ran with the plan disarmed. extra tools
// (the counting tool in traced mode) ride along on the reference runs.
func (s *stormRun) referenceCheck(o *outcome, extra ...mpi.Tool) (events int, runSecs float64, err error) {
	ref := map[string]string{}
	bad, checked := "", 0
	for _, ph := range s.checked {
		for _, r := range ph.recs {
			if !r.finished || r.state != serve.Done {
				continue
			}
			want, ok := ref[r.req.key]
			if !ok {
				col := trace.NewCollector(4 << 20)
				col.Messages, col.Collectives, col.Omp = true, true, true
				opts := r.req.opts
				opts.Tools = append([]mpi.Tool{col}, extra...)
				t0 := time.Now()
				if _, err := experiments.RunLive(opts); err != nil {
					return 0, 0, fmt.Errorf("reference run %s: %w", r.req.key, err)
				}
				runSecs += time.Since(t0).Seconds()
				var buf bytes.Buffer
				if err := trace.WriteEventsCSV(&buf, col.Buffer().Events()); err != nil {
					return 0, 0, err
				}
				events += col.Buffer().Len()
				want = digest(buf.Bytes())
				ref[r.req.key] = want
			}
			checked++
			if r.csv != want {
				bad = fmt.Sprintf("job %s (%s, faulted=%v) differs from its direct RunLive run", r.id, r.req.key, r.req.faulted)
				o.Failed++
			}
		}
	}
	o.Attempted += checked
	o.Checks = append(o.Checks, check{Name: "serve.result==runlive", OK: bad == "", Detail: bad})
	o.Notes["reference_configs"] = len(ref)
	o.Notes["reference_jobs_checked"] = checked
	return events, runSecs, nil
}

// plainStorm is the untraced serve-storm run.
func plainStorm(seed uint64, seconds float64) (*outcome, error) {
	o := newOutcome()
	setup, err := measureSetup("serve-storm", seed)
	if err != nil {
		return nil, err
	}
	s := newStormRun(seed)
	s.c.run(requestStream(s.rng, 60, &s.next), rateLow, 60*time.Second) // warm-up

	start := time.Now()
	var lowLat, highLat, late, sweeps []float64
	rounds := 0
	for rounds == 0 || time.Since(start).Seconds() < seconds {
		for _, r := range []struct {
			rate float64
			dst  *[]float64
			secs float64
		}{{rateLow, &lowLat, 2 * phaseSeconds}, {rateHigh, &highLat, phaseSeconds}} {
			ph := s.phase(int(r.rate*r.secs), r.rate)
			st := ph.stats()
			tally(o, st)
			*r.dst = append(*r.dst, st.clean...)
			late = append(late, ph.late...)
		}
		for b := 0; b < burstsPerRound; b++ {
			ph := s.phase(burstJobs, 0)
			tally(o, ph.stats())
			sweeps = append(sweeps, ph.end.Sub(ph.start).Seconds())
		}
		rounds++
	}
	if _, _, err := s.referenceCheck(o); err != nil {
		return nil, err
	}

	o.Samples["setup_s"] = summarize(setup)
	o.Samples["job_ms.low"] = summarize(lowLat)
	o.Samples["job_ms.high"] = summarize(highLat)
	o.Samples["sweep_s"] = summarize(sweeps)
	o.Samples["load.late_ms"] = summarize(late)
	o.Notes["rates_jobs_s"] = []float64{rateLow, rateHigh}
	o.set("setup_s", "s", median(setup))
	o.set("sweep_s", "s", median(sweeps))
	o.set("job_p50_ms.low", "ms", median(lowLat))
	o.set("job_p50_ms.high", "ms", median(highLat))
	o.set("peak_rss_mb", "MiB", peakRSSMB())
	return o, nil
}

// setupStorm is the service's cold first iteration: construction plus the
// first job, a clean distinct p=8 configuration, submitted through the
// handler and waited for.
func setupStorm(seed uint64) error {
	c := newStormClient()
	opts := experiments.LiveOptions{Experiment: "conv", Ranks: 8, Steps: 4, Scale: 32, Seed: seed}
	req := stormReq{
		opts:  opts,
		query: fmt.Sprintf("/run?exp=conv&p=8&steps=4&scale=32&seed=%d&tenant=t0", seed),
	}
	if st := c.run([]stormReq{req}, 0, 60*time.Second).stats(); len(st.clean) != 1 {
		return fmt.Errorf("first job did not complete")
	}
	return nil
}
