package lsds

// The benchmark harness: one benchmark per reproduced exhibit (the
// paper's Table 1 and the quantitative claims C1–C6, indexed E1–E10 in
// DESIGN.md). Each benchmark regenerates the corresponding rows;
// `go test -bench . -benchmem` therefore reproduces the full
// evaluation. The experiment drivers in internal/experiments print the
// actual tables (see cmd/experiments).

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/des"
	"repro/internal/eventq"
	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/parsim"
	"repro/internal/rng"
	"repro/internal/simulators/bricks"
	"repro/internal/simulators/chicsim"
	"repro/internal/simulators/gridsim"
	"repro/internal/simulators/monarc"
	"repro/internal/simulators/optorsim"
	"repro/internal/simulators/simgrid"
)

// BenchmarkE1Table1 regenerates the paper's Table 1 from the taxonomy
// profiles.
func BenchmarkE1Table1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiments.E1Table1(); len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// BenchmarkE2EventVsTimeDriven reproduces claim C1: the same sparse
// event set executed event-driven versus time-driven at shrinking tick
// sizes. The time-driven cost grows as 1/dt; the event-driven cost is
// flat.
func BenchmarkE2EventVsTimeDriven(b *testing.B) {
	const n, meanGap = 5000, 10.0
	build := func(schedule func(at float64, fn func())) {
		src := rng.New(7)
		at := 0.0
		for i := 0; i < n; i++ {
			at += src.Exp(1 / meanGap)
			schedule(at, func() {})
		}
	}
	horizon := float64(n) * meanGap * 1.2
	// Model construction (n Schedule calls) is excluded from the
	// timing: the comparison is about execution cost.
	b.Run("event-driven", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			e := des.NewEngine()
			build(func(at float64, fn func()) { e.At(at, fn) })
			b.StartTimer()
			e.RunUntil(horizon)
		}
	})
	for _, dt := range []float64{10, 1, 0.1} {
		b.Run(fmt.Sprintf("time-driven/dt=%g", dt), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				td := des.NewTimeDriven(dt)
				build(func(at float64, fn func()) { td.At(at, fn) })
				b.StartTimer()
				td.RunUntil(horizon)
			}
		})
	}
}

// benchHold times the classic hold model (pop the minimum, push it
// back later) on q at a steady population n: increments drawn
// beforehand, queue turned over twice before the clock starts, as
// experiments.holdCost and lsbench's probe do.
func benchHold(b *testing.B, q eventq.Queue, n int) {
	src := rng.New(11)
	var incr [1024]float64
	for i := range incr {
		incr[i] = src.Exp(1)
	}
	var seq uint64
	for i := 0; i < n; i++ {
		seq++
		q.Push(eventq.Item{Time: src.Exp(1), Seq: seq})
	}
	hold := func(ops int) {
		for i := 0; i < ops; i++ {
			it, _ := q.Pop()
			seq++
			q.Push(eventq.Item{Time: it.Time + incr[i%len(incr)], Seq: seq})
		}
	}
	hold(2 * n)
	b.ResetTimer()
	hold(b.N)
}

// BenchmarkE3QueueStructures reproduces claim C2 with the hold model:
// per-operation cost of each future-event-list structure at several
// pending-event populations. The sorted list degrades fastest (and is
// not run where one insert costs milliseconds); among the rest no
// structure wins at every n. internal/eventq's BenchmarkHold is the
// finer-grained sizing tool.
func BenchmarkE3QueueStructures(b *testing.B) {
	for _, n := range []int{100, 10000, 100000} {
		for _, k := range eventq.Kinds() {
			if k == eventq.KindList && n > 10000 {
				continue
			}
			b.Run(fmt.Sprintf("%s/n=%d", k, n), func(b *testing.B) {
				benchHold(b, eventq.New(k), n)
			})
		}
	}
}

// BenchmarkE3aCalendarResize is the bucket-adaptation ablation.
func BenchmarkE3aCalendarResize(b *testing.B) {
	for _, resizable := range []bool{true, false} {
		b.Run(fmt.Sprintf("resizable=%v", resizable), func(b *testing.B) {
			q := eventq.NewCalendar()
			q.SetResizable(resizable)
			benchHold(b, q, 10000)
		})
	}
}

// BenchmarkE4ThreadMapping reproduces claim C3: goroutine-per-job
// active objects versus closures multiplexed on the engine context.
func BenchmarkE4ThreadMapping(b *testing.B) {
	const jobs, holds = 2000, 5
	b.Run("goroutine-per-job", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := des.NewEngine(des.WithSeed(3))
			src := e.Stream("w")
			for j := 0; j < jobs; j++ {
				e.Spawn("job", func(p *des.Process) {
					for h := 0; h < holds; h++ {
						p.Hold(src.Exp(1))
					}
				})
			}
			e.Run()
		}
	})
	b.Run("multiplexed-closures", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			e := des.NewEngine(des.WithSeed(3))
			src := e.Stream("w")
			for j := 0; j < jobs; j++ {
				remaining := holds
				var step func()
				step = func() {
					remaining--
					if remaining > 0 {
						e.Schedule(src.Exp(1), step)
					}
				}
				e.Schedule(src.Exp(1), step)
			}
			e.Run()
		}
	})
}

// BenchmarkE5ParallelEngine reproduces claim C4 with PHOLD: worker
// scaling of the conservative federation.
func BenchmarkE5ParallelEngine(b *testing.B) {
	counts := []int{1, 2, 4}
	if runtime.NumCPU() >= 8 {
		counts = append(counts, 8)
	}
	for _, w := range counts {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ph := parsim.NewPHOLD(8, w, 1.0, 16, 0.1, 30000, 17)
				ph.Run(40)
			}
		})
	}
}

// BenchmarkE5aLookahead is the synchronization-granularity ablation.
func BenchmarkE5aLookahead(b *testing.B) {
	workers := runtime.NumCPU()
	if workers > 8 {
		workers = 8
	}
	for _, la := range []float64{0.25, 1, 4} {
		b.Run(fmt.Sprintf("lookahead=%g", la), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ph := parsim.NewPHOLD(8, workers, la, 8, 0.1, 200, 23)
				ph.Run(50)
			}
		})
	}
}

// BenchmarkE6Validation reproduces claim C5: the queueing-theory
// validation suite (M/M/1, M/M/c, M/D/1, M/G/1 versus closed form).
func BenchmarkE6Validation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if tbl := experiments.E6Validation(40000); len(tbl.Rows) == 0 {
			b.Fatal("empty validation table")
		}
	}
}

// BenchmarkE7TierStudy reproduces claim C6: one sweep point of the
// T0/T1 link-capacity study per sub-benchmark, then the whole sweep at
// lsbench's tier-study shape (seed 1, six links, 200 runs, 4 000 s),
// the only one whose saturated links build a backlog. goroutines-left
// counts goroutines a sweep leaves behind, mallocs/event the heap
// allocations a sweep makes per event it executes, and fel-max the
// most records any point's event list held (events and depth are
// read once, in an untimed sweep).
func BenchmarkE7TierStudy(b *testing.B) {
	for _, gbps := range []float64{2.5, 10, 30} {
		b.Run(fmt.Sprintf("link=%gGbps", gbps), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts := monarc.RunTierStudy(1, []float64{gbps}, 15, 400)
				if len(pts) != 1 {
					b.Fatal("missing point")
				}
			}
		})
	}
	b.Run("lsbench", func(b *testing.B) {
		links := []float64{0.622, 1.25, 2.5, 10, 30, 40}
		var events uint64
		felMax := 0
		des.SetDefaultObserver(&des.Observer{Hook: func(ev obs.Event) {
			events++
			felMax = max(felMax, ev.QueueLen)
		}})
		monarc.RunTierStudy(1, links, 200, 4000)
		des.SetDefaultObserver(nil)
		b.ReportAllocs()
		before := runtime.NumGoroutine()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		mallocs := mem.Mallocs
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if pts := monarc.RunTierStudy(1, links, 200, 4000); len(pts) != len(links) {
				b.Fatal("missing points")
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&mem)
		b.ReportMetric(float64(runtime.NumGoroutine()-before)/float64(b.N), "goroutines-left/op")
		b.ReportMetric(float64(mem.Mallocs-mallocs)/float64(b.N)/float64(events), "mallocs/event")
		b.ReportMetric(float64(felMax), "fel-max/op")
	})
}

// TestTierStudyEventListStaysShallow holds the event list of the
// tier study's most saturated point (lsbench's shape: seed 1, 200
// runs, 4 000 s, 0.622 Gbps) to 64 records. Its one link's completion
// timer moves later on every admission; re-armed by cancel and
// schedule, each move left a dead record queued, and the list peaked
// at 812 records, nearly all of them dead. The hook reads QueueLen,
// tombstones included, before each event.
func TestTierStudyEventListStaysShallow(t *testing.T) {
	depth := 0
	des.SetDefaultObserver(&des.Observer{Hook: func(ev obs.Event) { depth = max(depth, ev.QueueLen) }})
	defer des.SetDefaultObserver(nil)
	monarc.RunTierStudy(1, []float64{0.622}, 200, 4000)
	if depth > 64 {
		t.Fatalf("the 0.622 Gbps point's event list held %d records, want at most 64", depth)
	}
}

// BenchmarkE7aGranularity is the network-fidelity ablation: identical
// transfers under the flow-level and packet-level fabrics.
func BenchmarkE7aGranularity(b *testing.B) {
	run := func(b *testing.B, packet bool) {
		for i := 0; i < b.N; i++ {
			cfg := optorsim.DefaultConfig()
			cfg.Sites, cfg.Files, cfg.Jobs = 3, 20, 20
			_ = packet // granularity exercised in experiments.E7aGranularity
			optorsim.Run(cfg)
		}
	}
	b.Run("flow", func(b *testing.B) { run(b, false) })
	b.Run("tables", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if tbl := experiments.E7aGranularity(4, 2e6); len(tbl.Rows) != 2 {
				b.Fatal("granularity table")
			}
		}
	})
}

// BenchmarkE8CentralVsTier regenerates the central-vs-tier comparison.
func BenchmarkE8CentralVsTier(b *testing.B) {
	b.Run("central", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := bricks.DefaultConfig()
			cfg.Clients, cfg.JobsPerClient = 4, 10
			bricks.Run(cfg)
		}
	})
	b.Run("table", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if tbl := experiments.E8CentralVsTier([]int{2, 4}); len(tbl.Rows) != 4 {
				b.Fatal("central-vs-tier table")
			}
		}
	})
}

// BenchmarkE9PullVsPush regenerates the replication-strategy rows.
func BenchmarkE9PullVsPush(b *testing.B) {
	b.Run("pull", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := optorsim.DefaultConfig()
			cfg.Sites, cfg.Files, cfg.Jobs = 4, 40, 60
			optorsim.Run(cfg)
		}
	})
	b.Run("push", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := chicsim.DefaultConfig()
			cfg.Sites, cfg.Files, cfg.Jobs = 4, 40, 60
			chicsim.Run(cfg)
		}
	})
}

// BenchmarkE10Brokering regenerates the broker-strategy comparison.
func BenchmarkE10Brokering(b *testing.B) {
	b.Run("simgrid-greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := simgrid.DefaultConfig()
			cfg.Tasks = 60
			simgrid.Run(cfg)
		}
	})
	b.Run("simgrid-minmin", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := simgrid.DefaultConfig()
			cfg.Tasks = 60
			cfg.Strategy = simgrid.CompileTimeMinMin
			simgrid.Run(cfg)
		}
	})
	b.Run("gridsim-economy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cfg := gridsim.DefaultConfig()
			cfg.Jobs = 60
			gridsim.Run(cfg)
		}
	})
}
