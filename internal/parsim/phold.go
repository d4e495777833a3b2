package parsim

import (
	"fmt"
	"math"

	"repro/internal/checkpoint"
	"repro/internal/des"
)

// PHOLD is the standard synthetic benchmark of the parallel-DES
// literature (Fujimoto's "parallel hold" model): a fixed population of
// jobs circulates among LPs; each job event burns some model work,
// then reschedules itself either locally or on a remote LP after an
// exponential delay bounded below by the lookahead.
//
// It is used by experiment E5 to measure the speedup of distributed
// execution and its sensitivity to lookahead and remote-message
// probability — the exact trade-off the paper's Section 3 discusses.
type PHOLD struct {
	Fed *Federation
	// RemoteProb is the probability a job hops to another LP.
	RemoteProb float64
	// MeanDelay is the mean event spacing (>= lookahead enforced at
	// draw time).
	MeanDelay float64
	// Work is synthetic per-event computation (iterations of a
	// floating-point loop) emulating model complexity.
	Work int
	// SkewHot/SkewFactor introduce a hot spot: LPs with index <
	// SkewHot draw their event spacing from MeanDelay/SkewFactor. This
	// is the single-process reference for skewed distributed runs
	// (distsim.InstallPHOLDSkew consumes draws identically).
	SkewHot    int
	SkewFactor float64

	events []uint64  // per-LP processed event counts
	sinks  []float64 // per-LP accumulator keeping the work loop live
	hopOps []des.Op  // per-LP registered hop op ("phold.hop")
}

// NewPHOLD builds the benchmark over a fresh federation with the
// canonical mean event spacing of 4 lookaheads. The model is
// checkpointable: jobs are scheduled as registered ops and the per-LP
// counters ride in federation snapshots, so a PHOLD run can be
// checkpointed at any window barrier and resumed bit-identically.
func NewPHOLD(lps, workers int, lookahead float64, jobsPerLP int, remoteProb float64, work int, seed uint64) *PHOLD {
	return NewPHOLDFactor(lps, workers, lookahead, jobsPerLP, remoteProb, work, seed, 4)
}

// NewPHOLDFactor is NewPHOLD with an explicit delay factor: the mean
// event spacing is delayFactor lookaheads. Large factors make the
// traffic sparse — most lookahead windows hold no event at all — which
// is the regime the distributed engine's window skipping targets;
// distsim.InstallPHOLDFactor consumes random draws identically, so a
// sparse distributed run remains bit-comparable to this single-process
// reference.
func NewPHOLDFactor(lps, workers int, lookahead float64, jobsPerLP int, remoteProb float64, work int, seed uint64, delayFactor float64) *PHOLD {
	return NewPHOLDSkew(lps, workers, lookahead, jobsPerLP, remoteProb, work, seed, delayFactor, 0, 1)
}

// NewPHOLDSkew is NewPHOLDFactor with a hot spot: LPs with index <
// skewHot run skewFactor times as often (their mean event spacing is
// divided by skewFactor). It is the bit-identical reference for
// skewed distributed runs, with or without live rebalancing.
func NewPHOLDSkew(lps, workers int, lookahead float64, jobsPerLP int, remoteProb float64, work int, seed uint64, delayFactor float64, skewHot int, skewFactor float64) *PHOLD {
	if delayFactor <= 0 {
		panic(fmt.Sprintf("parsim: NewPHOLDFactor with delay factor %v", delayFactor))
	}
	fed := NewFederation(lps, lookahead, workers, seed)
	ph := &PHOLD{
		Fed:        fed,
		RemoteProb: remoteProb,
		MeanDelay:  delayFactor * lookahead,
		Work:       work,
		SkewHot:    skewHot,
		SkewFactor: skewFactor,
		events:     make([]uint64, lps),
		sinks:      make([]float64, lps),
		hopOps:     make([]des.Op, lps),
	}
	fed.SetModel(ph)
	for i := 0; i < lps; i++ {
		lp := fed.LP(i)
		lp.OnMessage = func(m Message) { ph.hop(lp) }
		ph.hopOps[i] = lp.E.RegisterOp("phold.hop", func([]byte) { ph.hop(lp) })
		for j := 0; j < jobsPerLP; j++ {
			lp.E.ScheduleOp(ph.drawDelay(lp), ph.hopOps[i], nil)
		}
	}
	return ph
}

// lpMean is the LP's mean event spacing: hot LPs run SkewFactor times
// as often.
func (ph *PHOLD) lpMean(index int) float64 {
	if index < ph.SkewHot && ph.SkewFactor > 1 {
		return ph.MeanDelay / ph.SkewFactor
	}
	return ph.MeanDelay
}

// drawDelay samples the next event spacing, clamped to the lookahead.
func (ph *PHOLD) drawDelay(lp *LP) float64 {
	d := lp.E.Rand().Exp(1 / ph.lpMean(lp.Index))
	if d < ph.Fed.Lookahead() {
		d = ph.Fed.Lookahead()
	}
	return d
}

// hop processes one job event on the LP and reschedules the job.
func (ph *PHOLD) hop(lp *LP) {
	ph.events[lp.Index]++
	// Synthetic model work; kept observable so the compiler cannot
	// elide it.
	acc := 1.0001
	for i := 0; i < ph.Work; i++ {
		acc = math.Sqrt(acc*1.7 + float64(i&7))
	}
	ph.sinks[lp.Index] += acc
	delay := ph.drawDelay(lp)
	if len(ph.events) > 1 && lp.E.Rand().Bernoulli(ph.RemoteProb) {
		target := lp.E.Rand().Intn(len(ph.events) - 1)
		if target >= lp.Index {
			target++
		}
		lp.Send(target, delay, nil)
		return
	}
	lp.E.ScheduleOp(delay, ph.hopOps[lp.Index], nil)
}

// MarshalState serializes the per-LP counters for federation
// snapshots; pending job events are carried by the engine snapshots.
func (ph *PHOLD) MarshalState() ([]byte, error) {
	var enc checkpoint.Enc
	enc.Int(len(ph.events))
	for _, n := range ph.events {
		enc.U64(n)
	}
	for _, s := range ph.sinks {
		enc.F64(s)
	}
	return enc.Bytes(), nil
}

// UnmarshalState restores the per-LP counters from a snapshot.
func (ph *PHOLD) UnmarshalState(data []byte) error {
	d := checkpoint.NewDec(data)
	n := d.Int()
	if n != len(ph.events) {
		return fmt.Errorf("parsim: PHOLD state has %d LPs, model has %d", n, len(ph.events))
	}
	for i := range ph.events {
		ph.events[i] = d.U64()
	}
	for i := range ph.sinks {
		ph.sinks[i] = d.F64()
	}
	return d.Err()
}

// Run executes the benchmark to the horizon and returns the total
// number of processed events.
func (ph *PHOLD) Run(horizon float64) uint64 {
	ph.Fed.Run(horizon)
	return ph.TotalEvents()
}

// TotalEvents returns processed events summed over LPs.
func (ph *PHOLD) TotalEvents() uint64 {
	var sum uint64
	for _, n := range ph.events {
		sum += n
	}
	return sum
}

// PerLPEvents returns a copy of the per-LP event counts.
func (ph *PHOLD) PerLPEvents() []uint64 {
	out := make([]uint64, len(ph.events))
	copy(out, ph.events)
	return out
}
