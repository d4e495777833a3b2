package distsim

import (
	"fmt"

	"repro/internal/pool"
)

// WorkerWindowBench drives one worker's window loop directly — no
// coordinator, no TCP — so benchmarks can price the intra-worker
// execution path in isolation: pool dispatch across Threads
// goroutines, per-LP send buffering during the window, and the
// canonical-order merge at the barrier. The worker owns every LP, so
// each window's cross-LP sends land in the local buffer and Deliver
// feeds them back before the next window, exactly as the serve loop
// would with coordinator routing collapsed out.
//
// Benchmarks split the two steps so the timed region covers only the
// pooled execution path: Deliver's per-event op encode is priced by
// the wire benchmarks, not here.
type WorkerWindowBench struct {
	w   *Worker
	end float64
	seq uint64
}

// NewWorkerWindowBench builds a configured worker hosting lps PHOLD
// LPs with the given pool width. hot/skew/holdNs shape the workload
// the way InstallPHOLDSkew does: the first hot LPs fire skew times as
// often and hold their pool thread holdNs wall ns per event — the
// parallelizable stretch an intra-worker pool exists to overlap.
func NewWorkerWindowBench(threads, lps, jobs int, remote float64, work, hot int, skew float64, holdNs int) *WorkerWindowBench {
	ids := make([]int, lps)
	for i := range ids {
		ids[i] = i
	}
	w := NewWorker(ids...)
	w.Threads = threads
	InstallPHOLDSkew(w, lps, jobs, remote, work, 4, hot, skew, holdNs)
	cfg := &frame{Kind: frameConfig, Lookahead: 1, Horizon: 1e18, Seed: 99, Session: 1}
	if err := w.applyConfig(cfg); err != nil {
		panic(fmt.Sprintf("distsim: WorkerWindowBench config: %v", err))
	}
	return &WorkerWindowBench{w: w}
}

// Window executes the next lookahead window — inline or across the
// persistent pool, as the pool chooses — and drains the per-LP send
// buffers in canonical LP order at the barrier.
func (h *WorkerWindowBench) Window() {
	h.seq++
	h.end += h.w.lookahead
	h.w.runWindow(h.end, h.seq)
	h.w.flushSends()
}

// Deliver routes the previous window's buffered sends into the
// engines, as the serve loop does at the top of a window frame.
func (h *WorkerWindowBench) Deliver() { h.w.deliver(nil) }

// Events returns the model's total executed event count, so callers
// can assert the workload actually ran (and keep the work observable
// to the optimizer).
func (h *WorkerWindowBench) Events() uint64 {
	var n uint64
	for _, c := range h.w.CountEvents() {
		n += c
	}
	return n
}

// PoolStats reports how the pool executed the windows so far.
func (h *WorkerWindowBench) PoolStats() pool.Stats { return h.w.PoolStats() }

// Close joins the pool goroutines. The harness must not be used after.
func (h *WorkerWindowBench) Close() { h.w.closePool() }
