package winsync

import (
	"cmp"
	"fmt"

	"repro/internal/des"
	"repro/internal/obs"
)

// This file is the kernel's observation of its own windows: each LP's
// engine (event spans, callback and dwell histograms), each pool thread
// (barrier-wait and busy phases) and the group's windows (windowObs).
// The group owns all of it — it alone sees every LP arrive and leave,
// and the pool reports to it. All of it is single-writer: an LP's ring
// and metrics are written by the thread that holds the LP inside a
// window, a thread's by that thread, the windows' by the group's
// caller, and the pool's barrier orders them against the accessors,
// which may only be called between windows.

// observation is what EnableObservability adds to a group.
type observation struct {
	spanCap int
	// threads grows to the largest pool Start has built; a thread's
	// history outlives the pool, which parsim rebuilds on every Run.
	threads []threadObs
	window  windowObs
	// base and dropped carry the histograms and ring overwrites of LPs
	// that left, so Totals never decrease: the delta encoding distsim
	// ships them in depends on it.
	base    obs.Metrics
	dropped uint64
}

// threadObs is a pool thread's record of its phases. The wait phase —
// from one window's done-token to the next start-token: the barrier,
// the transport's work between windows, the release — is the
// synchronization cost of conservative execution. A window the pool ran
// inline has none (waitStart == busyStart): one busy phase of thread 0.
type threadObs struct {
	rec        *obs.Recorder
	wait, busy obs.Histogram // wall ns blocked before, and executing, a window
}

// windowObs is the group's record of its windows, kept the way a thread
// keeps its phases but bounded by the group's own calls, so that it
// means the same under every transport: busy runs from the Deliver
// before a RunWindow (or from RunWindow, when none came first) to the
// Flush after it, the wait from that Flush to the next busy stretch — a
// worker's round trip to its coordinator, about zero in a federation —
// and deliver is each Deliver. The edges still open are wall-clock
// readings, 0 when none; Flush records the window's spans.
type windowObs struct {
	threadObs
	deliver                               obs.Histogram
	flushEnd, dlvStart, dlvEnd, busyStart int64
}

// EnableObservability gives every LP of the group — the present ones
// and any that Adopt or Restore bring — a trace ring of spanCap spans
// and callback/dwell histograms, every pool thread a ring of the same
// size with barrier-wait and busy histograms, and the group one with
// histograms of its window phases. Call it before Start; calling it
// again starts over with empty rings. It changes no result, and a group
// without it pays one nil test per Deliver, RunWindow and Flush.
func (g *Group) EnableObservability(spanCap int) {
	g.obs = &observation{spanCap: spanCap, window: windowObs{threadObs: threadObs{rec: obs.NewRecorder(spanCap)}}}
	for _, lp := range g.order {
		g.obs.attach(lp)
	}
}

// attach gives an LP's engine a fresh ring and histograms: an LP's
// history stays with the group it ran on (remove).
func (o *observation) attach(lp *LP) {
	lp.rec, lp.met = obs.NewRecorder(o.spanCap), &obs.Metrics{}
	lp.E.SetObserver(des.Observer{Recorder: lp.rec, Metrics: lp.met, Track: lp.ID})
}

// phases records, stamped with window (end, seq), the wait before a
// busy stretch, if any, and the stretch.
func (t *threadObs) phases(track int32, end float64, seq uint64, waitStart, busyStart, busyEnd int64) {
	span := obs.Span{Track: track, Time: end, Seq: seq}
	if waitStart != busyStart {
		t.wait.Observe(busyStart - waitStart)
		span.Kind, span.Wall, span.Dur = obs.KindBarrierWait, waitStart, busyStart-waitStart
		t.rec.Record(span)
	}
	t.busy.Observe(busyEnd - busyStart)
	span.Kind, span.Wall, span.Dur = obs.KindWindowBusy, busyStart, busyEnd-busyStart
	t.rec.Record(span)
}

// delivered notes a Deliver that ran from t0 to now.
func (w *windowObs) delivered(t0 int64) {
	t1 := obs.Now()
	w.deliver.Observe(t1 - t0)
	w.dlvStart, w.dlvEnd = cmp.Or(w.dlvStart, t0), t1
}

// opened starts a window's busy stretch, at its Deliver if one came.
func (w *windowObs) opened() { w.busyStart = cmp.Or(w.dlvStart, obs.Now()) }

// flushed closes the busy stretch of window (end, seq) — its span is the
// anchor obs.MergeTracks aligns a process's tracks on — and records the
// delivery and the wait before it. A Flush no RunWindow opened (a
// worker's flush of its Setup sends) is no edge.
func (w *windowObs) flushed(end float64, seq uint64) {
	if w.busyStart == 0 {
		return
	}
	now := obs.Now()
	if w.dlvStart != 0 {
		w.rec.Record(obs.Span{Kind: obs.KindDeliver, Wall: w.dlvStart, Dur: w.dlvEnd - w.dlvStart, Time: end, Seq: seq})
	}
	w.phases(0, end, seq, cmp.Or(w.flushEnd, w.busyStart), w.busyStart, now)
	w.flushEnd, w.dlvStart, w.busyStart = now, 0, 0
}

// stopped drops the edges still open: no phase spans a Stop, so a parsim
// Run times its first window from its own RunWindow.
func (w *windowObs) stopped() { w.flushEnd, w.dlvStart, w.busyStart = 0, 0, 0 }

// Totals returns the callback and dwell histograms merged over every LP
// the group owns or has owned, and the ring overwrites — the silent
// truncation of its trace — of every recorder likewise: none ever
// decreases, whatever Extract, Adopt and Restore do. Zero on an
// unobserved group.
func (g *Group) Totals() (m obs.Metrics, dropped uint64) {
	if g.obs == nil {
		return m, 0
	}
	m, dropped = g.obs.base, g.obs.dropped
	for _, lp := range g.order {
		m.Exec.Merge(&lp.met.Exec)
		m.Dwell.Merge(&lp.met.Dwell)
		dropped += lp.rec.Dropped()
	}
	for i := range g.obs.threads {
		dropped += g.obs.threads[i].rec.Dropped()
	}
	return m, dropped + g.obs.window.rec.Dropped()
}

// Phases returns copies of the group's window-phase histograms, in wall
// nanoseconds: each Deliver, each window's busy stretch and each barrier
// wait (windowObs). ok is false on an unobserved group.
func (g *Group) Phases() (deliver, busy, wait obs.Histogram, ok bool) {
	if g.obs == nil {
		return deliver, busy, wait, false
	}
	w := &g.obs.window
	return w.deliver, w.busy, w.wait, true
}

// ThreadHistograms returns, per pool thread, copies of the wall
// nanoseconds it spent blocked between windows and executing them.
func (g *Group) ThreadHistograms() (wait, busy []obs.Histogram) {
	if g.obs == nil {
		return nil, nil
	}
	for i := range g.obs.threads {
		wait = append(wait, g.obs.threads[i].wait)
		busy = append(busy, g.obs.threads[i].busy)
	}
	return wait, busy
}

// Tracks returns the group's tracks, numbered from 0 across both
// lists: first the window track ("window": barrier-wait, deliver and
// busy spans) and one per owned LP ("lp-<id>": event spans, schedule
// and cancel marks), then one per pool thread ("pw-<i>": barrier-wait
// and window-busy spans).
func (g *Group) Tracks() (group, threads []obs.Track) {
	if g.obs == nil {
		return nil, nil
	}
	group = append(group, obs.Track{Name: "window", TID: 0, Rec: g.obs.window.rec})
	for _, lp := range g.order {
		group = append(group, obs.Track{Name: fmt.Sprintf("lp-%d", lp.ID), TID: len(group), Rec: lp.rec})
	}
	for i := range g.obs.threads {
		threads = append(threads, obs.Track{Name: fmt.Sprintf("pw-%d", i), TID: len(group) + i, Rec: g.obs.threads[i].rec})
	}
	return group, threads
}
