package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/export"
	"repro/internal/lulesh"
	"repro/internal/machine"
	"repro/internal/mpi"
	"repro/internal/omp"
	"repro/internal/pop"
	"repro/internal/prof"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/verify"
	"repro/internal/waitstate"
)

// The layer ledger: microbenchmarks on testing.Benchmark, each at a fixed
// iteration count so every traced run measures the same work and a buffer
// that grows with the iteration count (the trace collector's) stays small.
// They are workload-independent and run in every traced run.

// bench runs fn for exactly n iterations and returns ns/op and allocs/op.
func bench(n int, fn func(b *testing.B)) (nsPerOp, allocsPerOp float64) {
	if err := flag.Set("test.benchtime", fmt.Sprintf("%dx", n)); err != nil {
		panic(err) // testing.Init registered the flag in main
	}
	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		fn(b)
	})
	if r.N == 0 {
		return 0, 0
	}
	return float64(r.T.Nanoseconds()) / float64(r.N), float64(r.MemAllocs) / float64(r.N)
}

// world runs body on every rank of a fresh world inside a benchmark and
// fails the benchmark on a runtime error.
func world(b *testing.B, cfg mpi.Config, body func(c *mpi.Comm, n int) error) {
	if cfg.Model == nil {
		cfg.Model = machine.Ideal(cfg.Ranks, 1)
	}
	cfg.Seed, cfg.Timeout = 1, 10*time.Minute
	b.ResetTimer()
	if _, err := mpi.Run(cfg, func(c *mpi.Comm) error { return body(c, b.N) }); err != nil {
		b.Fatal(err)
	}
}

// toolSets are the chains the pair ledger attaches; bundle is the observe
// bundle the service attaches to every job.
var toolSets = []struct {
	name  string
	tools func() []mpi.Tool
}{
	{"none", func() []mpi.Tool { return nil }},
	{"prof", func() []mpi.Tool { return []mpi.Tool{prof.New()} }},
	{"trace", func() []mpi.Tool { return []mpi.Tool{trace.NewCollector(0)} }},
	{"export", func() []mpi.Tool { return []mpi.Tool{export.NewRecorder(export.Options{})} }},
	{"telemetry", func() []mpi.Tool { return []mpi.Tool{telemetry.New(telemetry.Options{})} }},
	{"verify", func() []mpi.Tool { return []mpi.Tool{verify.New()} }},
	{"bundle", func() []mpi.Tool {
		c := trace.NewCollector(0)
		c.Messages, c.Collectives, c.Omp = true, true, true
		return []mpi.Tool{
			prof.New(),
			export.NewRecorder(export.Options{Messages: true, Collectives: true}),
			c,
			telemetry.New(telemetry.Options{}),
		}
	}},
}

// pairs is the iteration count of the section-pair rows: 4 ranks × 20000
// pairs keeps every recording tool's buffers in the tens of megabytes.
const pairs = 20000

func sectionPairs(b *testing.B, tools []mpi.Tool) {
	world(b, mpi.Config{Ranks: 4, Tools: tools}, func(c *mpi.Comm, n int) error {
		for i := 0; i < n; i++ {
			c.SectionEnter("PAIR")
			c.SectionExit("PAIR")
		}
		return nil
	})
}

func pingPong(b *testing.B, tools []mpi.Tool) {
	payload := make([]byte, 1024)
	world(b, mpi.Config{Ranks: 2, Tools: tools}, func(c *mpi.Comm, n int) error {
		peer := 1 - c.Rank()
		for i := 0; i < n; i++ {
			if c.Rank() == 0 {
				if err := c.Send(peer, 0, payload); err != nil {
					return err
				}
				data, _, err := c.Recv(peer, 0)
				if err != nil {
					return err
				}
				mpi.Release(data)
				continue
			}
			data, _, err := c.Recv(peer, 0)
			if err != nil {
				return err
			}
			mpi.Release(data)
			if err := c.Send(peer, 0, payload); err != nil {
				return err
			}
		}
		return nil
	})
}

func allreduce(ranks int) func(b *testing.B) {
	return func(b *testing.B) {
		world(b, mpi.Config{Ranks: ranks}, func(c *mpi.Comm, n int) error {
			xs := []float64{1, 2, 3, 4, float64(c.Rank()), 6, 7, 8}
			for i := 0; i < n; i++ {
				if _, err := c.Allreduce(xs, mpi.OpSum); err != nil {
					return err
				}
			}
			return nil
		})
	}
}

// ghostBatch is rank 0 fanning one ghost message out to 63 peers with
// SendGhostBatch, the batched path of the 2-D scatter.
func ghostBatch(b *testing.B) {
	const ranks = 64
	world(b, mpi.Config{Ranks: ranks}, func(c *mpi.Comm, n int) error {
		if c.Rank() != 0 {
			for i := 0; i < n; i++ {
				if _, err := c.RecvDiscard(0, 1); err != nil {
					return err
				}
			}
			return nil
		}
		dsts := make([]int, ranks-1)
		sizes := make([]int, ranks-1)
		for i := range dsts {
			dsts[i], sizes[i] = i+1, 4096
		}
		for i := 0; i < n; i++ {
			if err := c.SendGhostBatch(dsts, 1, sizes, sizes); err != nil {
				return err
			}
		}
		return nil
	})
}

// bringupShards is the lazy session runtime bringing up 10 shards of 256
// ranks whose ranks return at once.
const bringupShards = 10

func shardBringup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := mpi.Config{Ranks: 256 * bringupShards, Model: machine.ExtremeCluster(), Seed: 1, Lazy: true, Timeout: 10 * time.Minute}
		if _, err := mpi.Run(cfg, func(*mpi.Comm) error { return nil }); err != nil {
			b.Fatal(err)
		}
	}
}

// luleshSteps is the step count of the rank-step row: one rank of the
// Fig. 9 mesh (S=48 at scale 4), set-up amortized over the steps.
const luleshSteps = 10

func luleshRank(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := mpi.Config{Ranks: 1, ThreadsPerRank: 1, Model: machine.KNL(), Seed: 1, Timeout: 10 * time.Minute}
		p := lulesh.Params{S: 48, Steps: luleshSteps, Threads: 1, Scale: 4, SedovEnergy: 1e4}
		if _, err := lulesh.Run(cfg, p); err != nil {
			b.Fatal(err)
		}
	}
}

func ompFor(b *testing.B) {
	world(b, mpi.Config{Ranks: 1, ThreadsPerRank: 16, Model: machine.KNL()}, func(c *mpi.Comm, n int) error {
		team := omp.New(c, 16)
		sink := 0
		w := machine.Work{Flops: 10, Bytes: 80}
		for i := 0; i < n; i++ {
			team.ParallelFor(1024, w, func(k int) { sink += k })
		}
		_ = sink
		return nil
	})
}

// smokeEvents loads the committed smoke trace the analysis rows replay.
func smokeEvents() ([]trace.Event, error) {
	f, err := os.Open(filepath.Join("internal", "waitstate", "testdata", "smoke_trace.csv"))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return trace.ReadCSV(f)
}

// boundsStudy is a Fig. 5-shaped study: 13 scales, 6 sections.
func boundsStudy() (*core.Study, error) {
	s, err := core.NewStudy(100)
	if err != nil {
		return nil, err
	}
	for i, p := range []int{8, 16, 32, 64, 80, 96, 112, 128, 144, 192, 256, 320, 456} {
		wall := 100/float64(p) + 0.01*float64(i)
		totals := map[string]float64{}
		for j, label := range []string{"SCATTER", "HALO", "CONVOLVE", "GATHER", "INIT", "OUT"} {
			totals[label] = wall * float64(p) * float64(j+1) / 30
		}
		if err := s.AddPoint(p, wall, totals); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// runLedger measures every ledger row into o.
func runLedger(o *outcome) error {
	for _, ts := range toolSets {
		ns, allocs := bench(pairs, func(b *testing.B) { sectionPairs(b, ts.tools()) })
		o.set("tool."+ts.name+".pair_us", "us", ns/1e3)
		o.set("tool."+ts.name+".pair_allocs", "count", allocs)
		if ts.name == "none" {
			o.set("mpi.section_pair_us", "us", ns/1e3)
		}
	}
	ns, _ := bench(20000, func(b *testing.B) { pingPong(b, nil) })
	o.set("mpi.sendrecv_us", "us", ns/1e3)
	ns, _ = bench(20000, func(b *testing.B) {
		c := trace.NewCollector(0)
		c.Messages = true
		pingPong(b, []mpi.Tool{c})
	})
	// Two messages per ping-pong iteration.
	o.set("tool.trace.msg_us", "us", ns/2e3)
	ns, _ = bench(2000, allreduce(64))
	o.set("mpi.allreduce_64_us", "us", ns/1e3)
	ns, _ = bench(100, allreduce(1024))
	o.set("mpi.allreduce_1k_us", "us", ns/1e3)
	ns, _ = bench(2000, ghostBatch)
	o.set("mpi.ghost_batch_us", "us", ns/1e3)
	ns, _ = bench(5, shardBringup)
	o.set("mpi.shard_bringup_ms", "ms", ns/1e6/bringupShards)
	ns, _ = bench(5, luleshRank)
	o.set("lulesh.step_ms", "ms", ns/1e6/luleshSteps)
	ns, _ = bench(20000, ompFor)
	o.set("omp.for_us", "us", ns/1e3)

	events, err := smokeEvents()
	if err != nil {
		return fmt.Errorf("smoke trace: %w", err)
	}
	buf := trace.NewBuffer(0)
	for i := len(events) - 1; i >= 0; i-- { // reversed: the sort has work to do
		buf.Add(events[i])
	}
	var sink int
	ns, _ = bench(200, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += len(buf.Events())
		}
	})
	o.set("trace.sort_ms", "ms", ns/1e6)
	var a *waitstate.Analysis
	ns, _ = bench(200, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if a, err = waitstate.Analyze(events, waitstate.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	if a == nil {
		return fmt.Errorf("waitstate over the smoke trace: %v", err)
	}
	o.set("waitstate.analyze_ms", "ms", ns/1e6)
	ns, _ = bench(200, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += len(pop.FromAnalysis(a, pop.Options{}).Sections)
		}
	})
	o.set("pop.tree_ms", "ms", ns/1e6)
	study, err := boundsStudy()
	if err != nil {
		return err
	}
	ns, _ = bench(20000, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			bounds, err := study.BoundsAt(128)
			if err != nil {
				b.Fatal(err)
			}
			sink += len(bounds)
		}
	})
	o.set("core.bounds_us", "us", ns/1e3)
	o.Notes["ledger_sink"] = sink
	return nil
}
