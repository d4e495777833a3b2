package parsim

import (
	"fmt"
	"testing"

	"repro/internal/des"
)

// reportInlineFrac adds the share of the federation's windows that the
// pool ran inline to the benchmark's metrics: beside a speedup it says
// whether the extra workers were used at all.
func reportInlineFrac(b *testing.B, f *Federation) {
	st := f.Snapshot().Pool
	b.ReportMetric(float64(st.Inline)/float64(st.Inline+st.Dispatched), "inline_frac")
}

// BenchmarkFederationWindowOverhead isolates the per-window cost of
// the synchronization machinery: a lookahead 1000x finer than the mean
// event spacing of 8 LPs forces one barrier per 0.01 time units while
// the whole federation has about 8 events in 1000 windows, so almost
// every (LP, window) pair is idle. This is the regime where rebuilding
// the worker pool and channel per window dominated; the persistent pool
// runs a near-empty window inline at any worker count, and the due list
// enters only the LPs with an event in it. The lps axis spreads the
// same total event rate over 128 times as many LPs: what a window costs
// beyond one compare per LP must not grow with them.
func BenchmarkFederationWindowOverhead(b *testing.B) {
	for _, lps := range []int{8, 1024} {
		rate := 0.1 * 8 / float64(lps)
		for _, w := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("lps=%d/workers=%d", lps, w), func(b *testing.B) {
				b.ReportAllocs()
				var f *Federation
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					f = NewFederation(lps, 0.01, w, 7)
					for j := 0; j < f.LPs(); j++ {
						lp := f.LP(j)
						src := lp.E.Stream("sparse")
						lp.OnMessage = func(Event) {}
						var tick func()
						tick = func() { lp.E.Schedule(src.Exp(rate), tick) }
						lp.E.Schedule(src.Exp(rate), tick)
					}
					b.StartTimer()
					f.Run(10) // 1000 windows, ~8 events in all
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*1000), "ns/window")
				reportInlineFrac(b, f)
			})
		}
	}
}

// BenchmarkPHOLDSmall is the alloc-trajectory benchmark for the
// parallel engine: a short PHOLD run small enough to iterate, with
// allocation accounting on so the steady-state claim is visible in
// -benchmem output.
func BenchmarkPHOLDSmall(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			b.ReportAllocs()
			var ph *PHOLD
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ph = NewPHOLD(8, w, 1.0, 16, 0.1, 50, 17)
				b.StartTimer()
				ph.Run(200)
			}
			reportInlineFrac(b, ph.Fed)
		})
	}
}

// BenchmarkPHOLDSmallWindows is the lsbench fed-smallwin shape (and
// TestPHOLDPinned's): 64 LPs and ~16 events per window, so a window
// holds a few microseconds of work and what the pool adds to it shows.
func BenchmarkPHOLDSmallWindows(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			var ph *PHOLD
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				ph = NewPHOLD(64, w, 1, 1, 0.2, 0, 1)
				b.StartTimer()
				ph.Run(15000)
			}
			reportInlineFrac(b, ph.Fed)
		})
	}
}

// BenchmarkPHOLDFloor is BenchmarkPHOLDSmallWindows with the kernel
// taken away: the same 64 jobs make the same hops (an Exp delay clamped
// to the lookahead, the Bernoulli remote draw and the target draw, then
// ScheduleOp) on one des.Engine, a remote hop rescheduled locally. No
// window, no message, no LP: BenchmarkPHOLDSmallWindows/workers=1 over
// this is what the windowed kernel costs a small-window run.
func BenchmarkPHOLDFloor(b *testing.B) {
	const lps, lookahead, remote, horizon = 64, 1.0, 0.2, 15000
	var events uint64
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		e := des.NewEngine()
		r := e.Rand()
		var hop des.Op
		hop = e.RegisterOp("phold.hop", func([]byte) {
			delay := max(r.Exp(1/(4*lookahead)), lookahead)
			if r.Bernoulli(remote) {
				_ = r.Intn(lps - 1)
			}
			e.ScheduleOp(delay, hop, nil)
		})
		for j := 0; j < lps; j++ {
			e.ScheduleOp(max(r.Exp(1/(4*lookahead)), lookahead), hop, nil)
		}
		b.StartTimer()
		e.RunUntil(horizon)
		events = e.Executed()
	}
	b.ReportMetric(float64(events), "events/op")
}
