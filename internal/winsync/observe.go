package winsync

import (
	"fmt"

	"repro/internal/des"
	"repro/internal/obs"
)

// This file is the kernel's observation of its own windows: each LP's
// engine (event spans, callback and dwell histograms) and each pool
// thread (barrier-wait and busy phases). The group owns both — it alone
// sees every LP arrive and leave, and the pool reports to it. All of it
// is single-writer: an LP's ring and metrics are written by the thread
// that holds the LP inside a window, a thread's by that thread, and the
// pool's barrier orders both against the accessors, which may only be
// called between windows.

// observation is what EnableObservability adds to a group.
type observation struct {
	spanCap int
	// threads grows to the largest pool Start has built; a thread's
	// history outlives the pool, which parsim rebuilds on every Run.
	threads []threadObs
	// base and dropped carry the histograms and ring overwrites of LPs
	// that left, so Totals never decrease: the delta encoding distsim
	// ships them in depends on it.
	base    obs.Metrics
	dropped uint64
}

type threadObs struct {
	rec        *obs.Recorder
	wait, busy obs.Histogram // wall ns blocked before, and executing, a window
}

// EnableObservability gives every LP of the group — the present ones
// and any that Adopt or Restore bring — a trace ring of spanCap spans
// and callback/dwell histograms, and every pool thread a ring of the
// same size with barrier-wait and busy histograms. Call it before
// Start; calling it again starts over with empty rings. It changes no
// result, and a group without it pays one nil test per window.
func (g *Group) EnableObservability(spanCap int) {
	g.obs = &observation{spanCap: spanCap}
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

// observePhases is the pool's per-thread phase hook. The wait phase —
// from one window's done-token to the next start-token: the barrier,
// the transport's work between windows, the release — is the
// synchronization cost of conservative execution. A window the pool ran
// inline has none (waitStart == busyStart): one busy phase of thread 0.
func (g *Group) observePhases(thread int, waitStart, busyStart, busyEnd int64) {
	t := &g.obs.threads[thread]
	span := obs.Span{Track: int32(thread), Time: g.end, Seq: g.seq}
	if waitStart != busyStart {
		t.wait.Observe(busyStart - waitStart)
		span.Kind, span.Wall, span.Dur = obs.KindBarrierWait, waitStart, busyStart-waitStart
		t.rec.Record(span)
	}
	t.busy.Observe(busyEnd - busyStart)
	span.Kind, span.Wall, span.Dur = obs.KindWindowBusy, busyStart, busyEnd-busyStart
	t.rec.Record(span)
}

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
	return m, dropped
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

// Tracks returns one track per owned LP ("lp-<id>": event spans,
// schedule and cancel marks) and one per pool thread ("pw-<i>":
// barrier-wait and window-busy spans), numbered from 0 across both.
func (g *Group) Tracks() (lps, threads []obs.Track) {
	if g.obs == nil {
		return nil, nil
	}
	for i, lp := range g.order {
		lps = append(lps, obs.Track{Name: fmt.Sprintf("lp-%d", lp.ID), TID: i, Rec: lp.rec})
	}
	for i := range g.obs.threads {
		threads = append(threads, obs.Track{Name: fmt.Sprintf("pw-%d", i), TID: len(lps) + i, Rec: g.obs.threads[i].rec})
	}
	return lps, threads
}
