package distsim

import (
	"repro/internal/pool"
	"repro/internal/winsync"
)

// WorkerWindowBench drives the window loop a worker runs — a winsync
// group, with no coordinator and no TCP — so benchmarks can price the
// intra-worker execution path in isolation: pool dispatch across
// Threads goroutines, per-LP send buffering during the window, and the
// flush at the barrier. The group owns every LP, so each window's
// cross-LP sends land in its inbox and Deliver feeds them back before
// the next window, exactly as the serve loop would with coordinator
// routing collapsed out.
//
// Benchmarks split the two steps so the timed region covers only the
// pooled execution path: Deliver's per-event op encode is priced by
// the wire benchmarks, not here.
type WorkerWindowBench struct {
	g   *winsync.Group
	m   *winsync.PHOLD
	end float64
}

// NewWorkerWindowBench builds a group hosting lps PHOLD LPs with the
// given pool width. hot/skew/holdNs shape the workload the way
// the PHOLD model does: the first hot LPs fire skew times as often
// and burn holdNs ns of CPU per event — the parallelizable stretch an
// intra-worker pool exists to share out.
func NewWorkerWindowBench(threads, lps, jobs int, remote float64, work, hot int, skew float64, holdNs int) *WorkerWindowBench {
	ids := make([]int, lps)
	for i := range ids {
		ids[i] = i
	}
	m := &winsync.PHOLD{TotalLPs: lps, JobsPerLP: jobs, RemoteProb: remote, Work: work,
		DelayFactor: 4, SkewHot: hot, SkewFactor: skew, HotHoldNs: holdNs}
	h := &WorkerWindowBench{g: pholdGroup(m, ids...), m: m}
	if err := h.g.Start(max(1, threads)); err != nil {
		panic(err)
	}
	return h
}

// pholdGroup builds an offline group (lookahead 1, seed 99) with the
// model installed and seeded on every LP.
func pholdGroup(m *winsync.PHOLD, ids ...int) *winsync.Group {
	g := winsync.NewGroup(ids, m.TotalLPs, 1, 99)
	g.Install = m.Install
	for _, lp := range g.LPs() {
		m.Install(lp)
		m.Seed(lp)
	}
	return g
}

// Window executes the next lookahead window — inline or across the
// persistent pool, as the pool chooses — and flushes the per-LP send
// buffers at the barrier.
func (h *WorkerWindowBench) Window() {
	h.end += h.g.Lookahead()
	h.g.RunWindow(h.end, 0)
	h.g.Flush(nil)
}

// Deliver schedules the previous window's sends into the engines, as
// the serve loop does at the top of a window frame.
func (h *WorkerWindowBench) Deliver() { h.g.Deliver(nil) }

// Events returns the model's total executed event count, so callers
// can assert the workload actually ran (and keep the work observable
// to the optimizer).
func (h *WorkerWindowBench) Events() uint64 {
	var n uint64
	for _, lp := range h.g.LPs() {
		n += h.m.Events(lp)
	}
	return n
}

// PoolStats reports how the pool executed the windows so far.
func (h *WorkerWindowBench) PoolStats() pool.Stats { return h.g.PoolStats() }

// Close joins the pool goroutines. The harness must not be used after.
func (h *WorkerWindowBench) Close() { h.g.Stop() }
