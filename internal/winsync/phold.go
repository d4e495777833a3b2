package winsync

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/des"
)

// PHOLD is the standard synthetic benchmark of the parallel-DES
// literature (Fujimoto's "parallel hold" model): a fixed population of
// jobs circulates among LPs; each job event burns some model work, then
// reschedules itself either locally or on a remote LP after an
// exponential delay bounded below by the lookahead.
//
// Experiment E5 uses it to measure the speedup of parallel and
// distributed execution and its sensitivity to lookahead and
// remote-message probability — the trade-off the paper's Section 3
// discusses. The model is checkpointable and migratable: jobs are
// registered ops ("phold.hop") and the per-LP counters are the LP's
// State.
type PHOLD struct {
	// TotalLPs is the number of LPs in the whole simulation: the range
	// remote hops draw their target from.
	TotalLPs int
	// JobsPerLP is the job population Seed gives every LP.
	JobsPerLP int
	// RemoteProb is the probability a job hops to another LP.
	RemoteProb float64
	// Work is synthetic per-event computation (iterations of a
	// floating-point loop) emulating model complexity.
	Work int
	// DelayFactor is the mean event spacing in lookaheads (the canonical
	// PHOLD uses 4; large values make most windows empty).
	DelayFactor float64
	// SkewHot/SkewFactor introduce a hot spot: LPs with ID < SkewHot
	// draw their event spacing from a mean SkewFactor times shorter.
	SkewHot    int
	SkewFactor float64
	// HotHoldNs adds about this many ns of CPU work per event on hot
	// LPs, modeling expensive entities without touching simulation state
	// — the signal load-aware rebalancing exists to exploit. A spin, not
	// a sleep: holds on threads that share a CPU take turns.
	HotHoldNs int
}

// Validate reports parameters Install or a run would choke on; front
// ends that fill the struct from flags call it first.
func (m *PHOLD) Validate() error {
	switch {
	case m.TotalLPs <= 0:
		return fmt.Errorf("winsync: PHOLD over %d LPs", m.TotalLPs)
	case m.JobsPerLP < 0:
		return fmt.Errorf("winsync: PHOLD with %d jobs per LP", m.JobsPerLP)
	case !(m.RemoteProb >= 0 && m.RemoteProb <= 1):
		return fmt.Errorf("winsync: PHOLD remote probability %v is not in [0, 1]", m.RemoteProb)
	case !(m.DelayFactor > 0):
		return fmt.Errorf("winsync: PHOLD delay factor %v is not positive", m.DelayFactor)
	}
	return nil
}

// pholdLP is one LP's model state: the counters (written only by the
// thread running the LP), the registered hop op and the LP's constants.
type pholdLP struct {
	events uint64
	sink   float64 // keeps the work loop live
	hopOp  des.Op
	rate   float64 // 1 / mean event spacing
}

// Install gives lp its message handler, the hop op and fresh counters,
// and schedules nothing: it is what Group.Install needs, and the first
// half of preparing an initial LP.
func (m *PHOLD) Install(lp *LP) {
	if err := m.Validate(); err != nil {
		panic(err)
	}
	mean := m.DelayFactor * lp.Lookahead()
	if lp.ID < m.SkewHot && m.SkewFactor > 1 {
		mean /= m.SkewFactor
	}
	st := &pholdLP{rate: 1 / mean}
	lp.State = st
	lp.OnMessage = func(Event) { m.hop(lp, st) }
	st.hopOp = lp.E.RegisterOp("phold.hop", func([]byte) { m.hop(lp, st) })
}

// Seed schedules an installed LP's initial jobs.
func (m *PHOLD) Seed(lp *LP) {
	st := lp.State.(*pholdLP)
	for j := 0; j < m.JobsPerLP; j++ {
		lp.E.ScheduleOp(st.drawDelay(lp), st.hopOp, nil)
	}
}

// Events returns the number of job events the LP has processed.
func (m *PHOLD) Events(lp *LP) uint64 { return lp.State.(*pholdLP).events }

// drawDelay samples the next event spacing, clamped to the lookahead.
func (st *pholdLP) drawDelay(lp *LP) float64 {
	return max(lp.E.Rand().Exp(st.rate), lp.Lookahead())
}

// hop processes one job event on the LP and reschedules the job.
func (m *PHOLD) hop(lp *LP, st *pholdLP) {
	st.events++
	acc := 1.0001
	for i := 0; i < m.Work; i++ {
		acc = math.Sqrt(acc*1.7 + float64(i&7))
	}
	st.sink += acc
	if lp.ID < m.SkewHot && m.HotHoldNs > 0 {
		// CPU cost only: the hold draws nothing and schedules nothing, so
		// output is independent of where the LP runs.
		spin(int(float64(m.HotHoldNs) * spinsPerNs()))
	}
	delay := st.drawDelay(lp)
	if m.TotalLPs > 1 && lp.E.Rand().Bernoulli(m.RemoteProb) {
		target := lp.E.Rand().Intn(m.TotalLPs - 1)
		if target >= lp.ID {
			target++
		}
		lp.Send(target, delay, nil)
		return
	}
	lp.E.ScheduleOp(delay, st.hopOp, nil)
}

// spin is the hot hold: n dependent multiply-adds, seeded with n so
// the compiler cannot fold them. Not inlined, so a discarded result
// still costs the loop.
//
//go:noinline
func spin(n int) float64 {
	acc := float64(n)
	for i := 0; i < n; i++ {
		acc = acc*0.9999999 + 1e-7
	}
	return acc
}

// spinsPerNs is spin's rate on this host, timed on the first hot event:
// the fastest of five runs of about a millisecond.
var spinsPerNs = sync.OnceValue(func() float64 {
	best := time.Duration(math.MaxInt64)
	for range 5 {
		t0 := time.Now()
		spin(1 << 20)
		best = min(best, time.Since(t0))
	}
	return 1 << 20 / float64(best+1)
})

// AppendState writes the LP's counters; its pending jobs are in the
// engine's state.
func (st *pholdLP) AppendState(enc *checkpoint.Enc) error {
	enc.U64(st.events)
	enc.F64(st.sink)
	return nil
}

// RestoreState restores the counters in place: the hop closures hold
// the pointer.
func (st *pholdLP) RestoreState(d *checkpoint.Dec) error {
	events, sink := d.U64(), d.F64()
	if err := d.Err(); err != nil {
		return fmt.Errorf("winsync: PHOLD state: %w", err)
	}
	st.events, st.sink = events, sink
	return nil
}
