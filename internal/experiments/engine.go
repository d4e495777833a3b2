package experiments

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/des"
	"repro/internal/eventq"
	"repro/internal/metrics"
	"repro/internal/parsim"
	"repro/internal/rng"
)

// E2EventVsTimeDriven reproduces claim C1: "an event-driven DES is
// more efficient than a time-driven DES since it does not step through
// regular time intervals when no event occurs." The same sparse
// workload (n events, mean gap G) is executed by both engines while
// the tick size shrinks; the time-driven cost explodes with 1/dt, the
// event-driven cost stays constant.
func E2EventVsTimeDriven(n int, meanGap float64, ticks []float64) *metrics.Table {
	t := metrics.NewTable(
		"E2. Event-driven vs time-driven execution (same model)",
		"executor", "dt", "events", "clock steps", "wall ms")
	build := func(schedule func(delay float64, fn func())) {
		seed := des.NewEngine(des.WithSeed(7)) // draw identical spacings
		src := seed.Stream("gaps")
		at := 0.0
		for i := 0; i < n; i++ {
			at += src.Exp(1 / meanGap)
			schedule(at, func() {})
		}
	}
	horizon := float64(n) * meanGap * 1.2

	ed := des.NewEngine()
	build(func(at float64, fn func()) { ed.At(at, fn) })
	start := time.Now()
	ed.RunUntil(horizon)
	edWall := time.Since(start)
	t.AddRowf("event-driven", "-", ed.Stats().Executed, ed.Stats().Executed, float64(edWall.Microseconds())/1000)

	for _, dt := range ticks {
		td := des.NewTimeDriven(dt)
		build(func(at float64, fn func()) { td.At(at, fn) })
		start := time.Now()
		td.RunUntil(horizon)
		wall := time.Since(start)
		t.AddRowf("time-driven", dt, td.Stats().Executed, td.Ticks(),
			float64(wall.Microseconds())/1000)
	}
	return t
}

// E3QueueShootout reproduces claim C2: the pending-event structure
// dominates engine cost — "a system using an O(1) structure for the
// event list will behave better than another one using an O(log n)
// queuing structure", yet "there is not a single unanimity accepted
// queuing structure ... they all tend to behave different depending on
// various parameters." Classic hold model: fixed population n, each
// operation pops the minimum and pushes a replacement.
func E3QueueShootout(sizes []int, holdOps int) *metrics.Table {
	t := metrics.NewTable(
		"E3. Event queue hold-model cost (ns per hold operation)",
		append([]string{"n"}, kindNames()...)...)
	for _, n := range sizes {
		row := []string{fmt.Sprintf("%d", n)}
		for _, k := range eventq.Kinds() {
			cell := "-"
			if ns, ok := e3Cost(k, n, holdOps); ok {
				cell = fmt.Sprintf("%.0f", ns)
			}
			row = append(row, cell)
		}
		t.AddRow(row...)
	}
	return t
}

func kindNames() []string {
	var out []string
	for _, k := range eventq.Kinds() {
		out = append(out, string(k))
	}
	return out
}

// holdCost measures ns per hold (pop the minimum, push it back later)
// on q at a steady population n. The increments are drawn beforehand
// and the queue is turned over twice before the clock starts, so the
// number prices the structure at steady state: not the random source,
// and not the shape the bulk fill left behind.
func holdCost(q eventq.Queue, n, ops int) float64 {
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
	start := time.Now()
	hold(ops)
	return float64(time.Since(start).Nanoseconds()) / float64(ops)
}

// e3Cost is holdCost for a kind, except where the answer is known and
// costs minutes: the sorted list's O(n) insert is ~2 ms at n = 10⁵, and
// turning that queue over twice is 2·10⁵ of them.
func e3Cost(k eventq.Kind, n, ops int) (ns float64, ok bool) {
	if k == eventq.KindList && n > 10_000 {
		return 0, false
	}
	return holdCost(eventq.New(k), n, ops), true
}

// E3aCalendarResize is the ablation DESIGN.md calls out: a calendar
// queue whose bucket count cannot adapt loses its O(1) behavior as the
// population drifts away from the configured geometry.
func E3aCalendarResize(sizes []int, holdOps int) *metrics.Table {
	t := metrics.NewTable(
		"E3a. Calendar queue resize ablation (ns per hold operation)",
		"n", "resizable", "frozen")
	for _, n := range sizes {
		var cost [2]float64
		for i, resizable := range []bool{true, false} {
			q := eventq.NewCalendar()
			q.SetResizable(resizable)
			cost[i] = holdCost(q, n, holdOps)
		}
		t.AddRowf(n, cost[0], cost[1])
	}
	return t
}

// E4ThreadMapping reproduces claim C3: "reusing threads, using
// advanced mapping schemes in which multiple jobs can be simulated
// running in the same thread context ... can yield higher simulation
// performances." The same job population is simulated once with a
// goroutine-backed Process per job (MONARC's active objects) and once
// with all jobs multiplexed as closures on the engine's single
// context.
func E4ThreadMapping(jobs, holdsPerJob int) *metrics.Table {
	t := metrics.NewTable(
		"E4. Job-to-execution-context mapping",
		"mapping", "jobs", "events", "wall ms", "KiB allocated")

	measure := func(name string, run func(e *des.Engine)) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		e := des.NewEngine(des.WithSeed(3))
		start := time.Now()
		run(e)
		wall := time.Since(start)
		runtime.ReadMemStats(&after)
		t.AddRowf(name, jobs, e.Stats().Executed,
			float64(wall.Microseconds())/1000,
			float64(after.TotalAlloc-before.TotalAlloc)/1024)
	}

	measure("goroutine per job", func(e *des.Engine) {
		src := e.Stream("w")
		for j := 0; j < jobs; j++ {
			e.Spawn("job", func(p *des.Process) {
				for h := 0; h < holdsPerJob; h++ {
					p.Hold(src.Exp(1))
				}
			})
		}
		e.Run()
	})
	measure("multiplexed closures", func(e *des.Engine) {
		src := e.Stream("w")
		for j := 0; j < jobs; j++ {
			remaining := holdsPerJob
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
	})
	return t
}

// hostNote names the processors a wall-time column was measured on: a
// speedup says nothing without them.
func hostNote() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d", runtime.NumCPU(), runtime.GOMAXPROCS(0))
}

// E5ParallelEngine reproduces claim C4 with the PHOLD benchmark:
// speedup of multi-worker (distributed) execution over the
// single-worker (centralized) engine, versus worker count. The worker
// count is an upper bound (internal/pool): the last column says how
// many of the windows the pool ran inline after timing both ways.
func E5ParallelEngine(lps, jobsPerLP, work int, horizon float64, workerCounts []int) *metrics.Table {
	t := metrics.NewTable(
		"E5. PHOLD: centralized vs distributed execution ("+hostNote()+")",
		"workers", "events", "wall ms", "speedup", "windows inline")
	base := 0.0
	for _, w := range workerCounts {
		ph := parsim.NewPHOLD(lps, w, 1.0, jobsPerLP, 0.1, work, 17)
		start := time.Now()
		events := ph.Run(horizon)
		wall := float64(time.Since(start).Microseconds()) / 1000
		if base == 0 {
			base = wall
		}
		snap := ph.Fed.Snapshot()
		t.AddRowf(w, events, wall, base/wall, fmt.Sprintf("%d of %d", snap.Pool.Inline, snap.Windows))
	}
	return t
}

// E5aLookahead is the lookahead-sensitivity ablation: conservative
// synchronization pays one barrier per lookahead window, so a smaller
// lookahead means more synchronization for the same simulated time.
func E5aLookahead(lookaheads []float64, horizon float64) *metrics.Table {
	t := metrics.NewTable(
		"E5a. Lookahead sensitivity of conservative synchronization",
		"lookahead", "windows", "events", "wall ms")
	workers := runtime.NumCPU()
	if workers > 8 {
		workers = 8
	}
	for _, la := range lookaheads {
		ph := parsim.NewPHOLD(8, workers, la, 8, 0.1, 200, 23)
		start := time.Now()
		events := ph.Run(horizon)
		wall := float64(time.Since(start).Microseconds()) / 1000
		t.AddRowf(la, ph.Fed.Windows(), events, wall)
	}
	return t
}
