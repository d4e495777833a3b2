package parsim

import "repro/internal/winsync"

// PHOLD is winsync's PHOLD model on a federation of its own: the
// single-process run every distributed PHOLD run is compared against.
// A PHOLD federation can be checkpointed at any window barrier and
// resumed bit-identically.
type PHOLD struct {
	*winsync.PHOLD
	Fed *Federation
}

// NewPHOLD builds the benchmark over a fresh federation with the
// canonical mean event spacing of 4 lookaheads.
func NewPHOLD(lps, workers int, lookahead float64, jobsPerLP int, remoteProb float64, work int, seed uint64) *PHOLD {
	return NewPHOLDFactor(lps, workers, lookahead, jobsPerLP, remoteProb, work, seed, 4)
}

// NewPHOLDFactor is NewPHOLD with an explicit delay factor: the mean
// event spacing is delayFactor lookaheads. Large factors make the
// traffic sparse — most lookahead windows hold no event at all — which
// is the regime the distributed engine's window skipping targets.
func NewPHOLDFactor(lps, workers int, lookahead float64, jobsPerLP int, remoteProb float64, work int, seed uint64, delayFactor float64) *PHOLD {
	return NewPHOLDModel(winsync.PHOLD{TotalLPs: lps, JobsPerLP: jobsPerLP, RemoteProb: remoteProb,
		Work: work, DelayFactor: delayFactor, SkewFactor: 1}, workers, lookahead, seed)
}

// NewPHOLDModel runs m — the same struct a distributed run installs on
// its workers, skew included — on a fresh federation of m.TotalLPs LPs.
func NewPHOLDModel(m winsync.PHOLD, workers int, lookahead float64, seed uint64) *PHOLD {
	ph := &PHOLD{PHOLD: &m, Fed: NewFederation(m.TotalLPs, lookahead, workers, seed)}
	for _, lp := range ph.Fed.g.LPs() {
		ph.Install(lp)
		ph.Seed(lp)
	}
	return ph
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
	for _, n := range ph.PerLPEvents() {
		sum += n
	}
	return sum
}

// PerLPEvents returns the per-LP event counts.
func (ph *PHOLD) PerLPEvents() []uint64 {
	out := make([]uint64, ph.Fed.LPs())
	for i, lp := range ph.Fed.g.LPs() {
		out[i] = ph.Events(lp)
	}
	return out
}
