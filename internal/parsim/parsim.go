// Package parsim implements parallel simulation execution: the
// "distributed" pole of the taxonomy's execution axis.
//
// The paper observes that "a pure serial simulation execution, which
// would make use of only a single processor, can not be a reality when
// addressing the problem of simulating large scale distributed
// systems" — modern engines must at least exploit every local
// processor — while fully distributed simulation "has not
// significantly impressed the general simulation community" (Fujimoto
// 1993) because of the synchronization cost. Both observations are
// measurable here.
//
// The algorithm — logical processes with private engines, advanced in
// lock-step lookahead windows, cross-LP messages delivered in (source
// LP, send order) at the barriers — is package winsync's, shared with
// distsim. A Federation is its transport with no wire: one
// winsync.Group owns every LP, so each window is
// RunWindow → Flush → Deliver(nil) and nothing ever leaves the process.
// Results are bit-identical for any worker count, including 1, which
// is what lets experiment E5 attribute speedups to parallelism alone.
// What this package adds is the window clock, Run and the snapshot
// header; the group times the windows itself.
package parsim

import (
	"fmt"
	"math"

	"repro/internal/des"
	"repro/internal/obs"
	"repro/internal/pool"
	"repro/internal/winsync"
)

// LP is one logical process; Event is a cross-LP message as the
// receiving LP's OnMessage sees it.
type (
	LP    = winsync.LP
	Event = winsync.Event
)

// Federation is a set of LPs advancing in conservative lock-step
// windows over a persistent pool of workers.
//
// The pool (internal/pool) is created once per Run and reused for every
// window: rebuilding goroutines and channels per window — the naive
// translation of "fork workers for each window" — costs a pool
// construction and teardown every lookahead interval, which is exactly
// the execution-context churn the paper's engine guidance warns about;
// with fine lookaheads the simulation executes thousands of windows
// per second and the churn dominates.
//
// The worker count is an upper bound: the pool times a few windows
// both ways at the head of every epoch and runs the rest on the
// coordinator's own goroutine whenever waking the workers costs more
// than the windows hold (see internal/pool). Results do not depend on
// it; Snapshot.Pool reports what it chose.
type Federation struct {
	g       *winsync.Group
	workers int // pool size: the requested count, at most one per LP

	windows uint64
	// clock is the end of the last completed window: Run continues from
	// here, and Checkpoint records it so a restored federation resumes
	// at the exact window boundary.
	clock float64
}

// NewFederation creates n LPs with the given lookahead (the minimum
// cross-LP delay, > 0) executed by the given number of parallel
// workers (>= 1). Each LP's engine derives its seed from the base
// seed and the LP index, so results are reproducible and independent
// of the worker count.
func NewFederation(n int, lookahead float64, workers int, seed uint64) *Federation {
	if n <= 0 || lookahead <= 0 || workers <= 0 {
		panic(fmt.Sprintf("parsim: NewFederation(n=%d, lookahead=%v, workers=%d)", n, lookahead, workers))
	}
	ids := make([]int, n)
	for i := range ids {
		ids[i] = i
	}
	// Workers beyond the LP count would only contend on the pool's cursor.
	workers = min(workers, n)
	return &Federation{g: winsync.NewGroup(ids, n, lookahead, seed), workers: workers}
}

// LPs returns the number of logical processes.
func (f *Federation) LPs() int { return len(f.g.LPs()) }

// LP returns the i-th logical process.
func (f *Federation) LP(i int) *LP { return f.g.LPs()[i] }

// Lookahead returns the federation lookahead.
func (f *Federation) Lookahead() float64 { return f.g.Lookahead() }

// Windows returns the number of synchronization windows executed.
func (f *Federation) Windows() uint64 { return f.windows }

// IdleSkips returns the number of (LP, window) pairs that were skipped
// because the LP had no event inside the window — work the persistent
// pool avoids dispatching entirely.
func (f *Federation) IdleSkips() uint64 { return f.g.IdleSkips() }

// EnableObservability has the group record its LPs, pool workers and
// windows in rings of spanCap spans, with histograms
// (winsync.Group.EnableObservability). Call it before Run; calling it
// again starts over. It never perturbs simulation results — the
// determinism tests run with it on — it only costs wall time.
func (f *Federation) EnableObservability(spanCap int) { f.g.EnableObservability(spanCap) }

// Snapshot is a point-in-time view of federation-level runtime
// metrics, taken between Run calls.
type Snapshot struct {
	// Windows and IdleSkips mirror the federation counters.
	Windows   uint64
	IdleSkips uint64
	// LPs holds each LP engine's Stats (with latency histograms when
	// observability is on).
	LPs []des.Stats
	// BarrierWait aggregates, across workers, the wall nanoseconds a
	// worker spent blocked between finishing one window and starting
	// the next — the synchronization cost of conservative lock-step.
	BarrierWait *obs.Histogram
	// WindowWall is the wall nanoseconds of each window's busy stretch,
	// from the delivery before it to its flush (winsync.Group.Phases).
	WindowWall *obs.Histogram
	// Utilization is, per worker, busy wall time divided by total
	// window wall time — the load-balance profile of the run. A window
	// the pool ran inline is busy time of worker 0 alone.
	Utilization []float64
	// Pool counts the windows the pool ran inline on the coordinator's
	// goroutine and those it dispatched to its workers, and how often
	// its measurements reversed that choice.
	Pool pool.Stats
}

// Snapshot captures the current federation metrics. The histograms are
// merged copies; mutating them does not affect the live run. Must not
// be called while Run is executing.
func (f *Federation) Snapshot() Snapshot {
	s := Snapshot{Windows: f.windows, IdleSkips: f.IdleSkips(), Pool: f.g.PoolStats()}
	s.LPs = make([]des.Stats, f.LPs())
	for i, lp := range f.g.LPs() {
		s.LPs[i] = lp.E.Stats()
	}
	_, ww, _, ok := f.g.Phases()
	if !ok {
		return s
	}
	wait, busy := f.g.ThreadHistograms()
	s.BarrierWait = &obs.Histogram{}
	for w := range wait {
		s.BarrierWait.Merge(&wait[w])
	}
	s.WindowWall = &ww
	s.Utilization = make([]float64, f.workers)
	if total := ww.Sum(); total > 0 {
		for w := range busy {
			s.Utilization[w] = float64(busy[w].Sum()) / float64(total)
		}
	}
	return s
}

// TraceTracks returns the group's window track, one obs.Track per LP
// and one per pool worker, ready for obs.WriteChromeTrace: the window
// track carries the barrier-wait, deliver and busy span of each window,
// LP tracks event spans and schedule/cancel marks, worker tracks
// barrier-wait and window-busy spans. Nil when observability is off.
func (f *Federation) TraceTracks() []obs.Track {
	group, workers := f.g.Tracks()
	return append(group, workers...)
}

// Run advances every LP to the horizon in lookahead-sized windows.
// Within a window LPs execute concurrently on the worker pool; at the
// barrier, buffered cross-LP messages are delivered into the target
// engines in (source LP, send order).
//
// The worker goroutines are started once here and reused for every
// window; they exit when Run returns. Run may be called again to
// continue past a previous horizon.
func (f *Federation) Run(horizon float64) {
	if horizon <= f.clock || math.IsNaN(horizon) || math.IsInf(horizon, 0) {
		panic(fmt.Sprintf("parsim: Run(%v) with window clock at %v", horizon, f.clock))
	}
	if err := f.g.Start(f.workers); err != nil {
		panic(fmt.Sprintf("parsim: %v", err))
	}
	defer f.g.Stop()
	for windowEnd := f.clock + f.Lookahead(); ; windowEnd += f.Lookahead() {
		if windowEnd > horizon {
			windowEnd = horizon
		}
		f.windows++
		f.g.RunWindow(windowEnd, f.windows)
		// One group owns every LP: nothing is flushed out of it, and
		// nothing comes in.
		f.g.Flush(nil)
		f.g.Deliver(nil)
		f.clock = windowEnd
		if windowEnd >= horizon {
			return
		}
	}
}
