package des

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/obs"
)

// BenchmarkScheduleExecute measures raw event throughput: the cost of
// one schedule+execute cycle at a steady queue population.
func BenchmarkScheduleExecute(b *testing.B) {
	e := NewEngine()
	src := e.Stream("bench")
	const population = 1024
	var pump func()
	count := 0
	pump = func() {
		count++
		if count < b.N {
			e.Schedule(src.Exp(1), pump)
		}
	}
	for i := 0; i < population && i < b.N; i++ {
		e.Schedule(src.Exp(1), pump)
	}
	b.ResetTimer()
	e.Run()
}

// BenchmarkScheduleExecuteTraced is BenchmarkScheduleExecute with the
// full observability sink attached (ring recorder + histograms): the
// steady-state recording path must be allocation-free, so the cost of
// tracing is bounded by timestamping, not by GC pressure.
func BenchmarkScheduleExecuteTraced(b *testing.B) {
	rec := obs.NewRecorder(1 << 14)
	met := &obs.Metrics{}
	e := NewEngine()
	e.SetObserver(Observer{Recorder: rec, Metrics: met})
	src := e.Stream("bench")
	const population = 1024
	var pump func()
	count := 0
	pump = func() {
		count++
		if count < b.N {
			e.Schedule(src.Exp(1), pump)
		}
	}
	for i := 0; i < population && i < b.N; i++ {
		e.Schedule(src.Exp(1), pump)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcessContextSwitch measures one Hold round trip — the
// goroutine handover cost that E4's mapping comparison is built on.
func BenchmarkProcessContextSwitch(b *testing.B) {
	e := NewEngine()
	e.Spawn("bench", func(p *Process) {
		for i := 0; i < b.N; i++ {
			p.Hold(1)
		}
	})
	b.ResetTimer()
	e.Run()
}

// BenchmarkResourceAcquireRelease measures the synchronization
// primitive under contention.
func BenchmarkResourceAcquireRelease(b *testing.B) {
	for _, procs := range []int{1, 8} {
		b.Run(fmt.Sprintf("procs=%d", procs), func(b *testing.B) {
			e := NewEngine()
			res := e.NewResource("r", 1)
			per := b.N/procs + 1
			for i := 0; i < procs; i++ {
				e.Spawn("w", func(p *Process) {
					for j := 0; j < per; j++ {
						res.Acquire(p, 1)
						p.Hold(0.001)
						res.Release(1)
					}
				})
			}
			b.ResetTimer()
			e.Run()
		})
	}
}

// BenchmarkCancel measures tombstone-based cancellation.
func BenchmarkCancel(b *testing.B) {
	e := NewEngine()
	timers := make([]Timer, b.N)
	for i := range timers {
		timers[i] = e.Schedule(float64(i)+1, func() {})
	}
	b.ResetTimer()
	for i := range timers {
		timers[i].Cancel()
	}
	e.Run()
}

// BenchmarkSeqHold is lsbench's `seq-hold` shape on the default
// engine: 10⁴ events pending, each rescheduling itself U(0,2) ahead,
// so the FEL's pop and push at depth 10⁴ are most of an iteration.
// The queue is turned over twice before the clock starts; the last 10⁴
// iterations drain it, which is nothing once b.N is in the millions.
func BenchmarkSeqHold(b *testing.B) {
	const pending = 10_000
	e := NewEngine(WithSeed(1))
	src := e.Stream("h")
	left := 2*pending + b.N
	var hold func()
	hold = func() {
		if left--; left == b.N {
			b.ResetTimer()
		}
		if left >= pending {
			e.Schedule(src.Float64()*2, hold)
		}
	}
	for i := 0; i < pending; i++ {
		e.Schedule(src.Float64()*2, hold)
	}
	b.ReportAllocs()
	e.Run()
}

// BenchmarkSchedulePending builds a fresh engine with n pending events,
// the hold model's start (seq-hold schedules 10⁴): one op is one build,
// reported per event in wall time, bytes and allocations.
func BenchmarkSchedulePending(b *testing.B) {
	for _, n := range []int{10_000, 1_000_000} {
		b.Run(fmt.Sprint(n), func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < b.N; i++ {
				e := NewEngine()
				src := e.Stream("h")
				for j := 0; j < n; j++ {
					e.Schedule(src.Float64()*2, func() {})
				}
			}
			runtime.ReadMemStats(&after)
			events := float64(b.N) * float64(n)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/events, "B/event")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/events, "allocs/event")
		})
	}
}
