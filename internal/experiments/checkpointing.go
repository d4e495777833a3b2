package experiments

import (
	"bytes"
	"slices"
	"time"

	"repro/internal/metrics"
	"repro/internal/parsim"
)

// The E5 PHOLD shape, shared by the CheckpointSnapshot benchmark and
// the E5d overhead experiment.
const (
	e5LPs        = 8
	e5Lookahead  = 1.0
	e5JobsPerLP  = 16
	e5RemoteProb = 0.2
	e5Seed       = 77
)

// E5dCheckpointOverhead quantifies the price of fault tolerance: the
// wall time of one federation snapshot against the wall time of one
// synchronization window on the E5 PHOLD workload. The design target
// is snapshots under 5% of a window — cheap enough to take at every
// barrier — and the table also demonstrates the correctness half of
// the claim: a run checkpointed at the mid-point and resumed into a
// fresh federation finishes with identical per-LP results.
func E5dCheckpointOverhead(work int, horizon float64) *metrics.Table {
	t := metrics.NewTable("E5d: checkpoint/restore overhead (PHOLD, 8 LPs)", "metric", "value")

	ph := parsim.NewPHOLD(e5LPs, 1, e5Lookahead, e5JobsPerLP, e5RemoteProb, work, e5Seed)
	start := time.Now()
	ph.Run(horizon)
	wall := time.Since(start)
	perWindow := wall / time.Duration(ph.Fed.Windows())

	var buf bytes.Buffer
	snap := time.Duration(1<<63 - 1)
	for i := 0; i < 5; i++ {
		buf.Reset()
		s := time.Now()
		if err := ph.Fed.Checkpoint(&buf); err != nil {
			t.AddRowf("snapshot error", err)
			return t
		}
		if d := time.Since(s); d < snap {
			snap = d
		}
	}
	t.AddRowf("windows", ph.Fed.Windows())
	t.AddRowf("window wall µs", float64(perWindow.Nanoseconds())/1e3)
	t.AddRowf("snapshot µs", float64(snap.Nanoseconds())/1e3)
	t.AddRowf("snapshot bytes", buf.Len())
	t.AddRowf("overhead % of window", 100*float64(snap)/float64(perWindow))

	// Correctness: checkpoint at the mid-point barrier, restore into a
	// federation built with a different seed, finish, compare.
	half := parsim.NewPHOLD(e5LPs, 1, e5Lookahead, e5JobsPerLP, e5RemoteProb, work, e5Seed)
	half.Run(horizon / 2)
	var mid bytes.Buffer
	if err := half.Fed.Checkpoint(&mid); err != nil {
		t.AddRowf("mid-run snapshot error", err)
		return t
	}
	res := parsim.NewPHOLD(e5LPs, 1, e5Lookahead, e5JobsPerLP, e5RemoteProb, work, e5Seed+1)
	if err := res.Fed.Restore(bytes.NewReader(mid.Bytes())); err != nil {
		t.AddRowf("restore error", err)
		return t
	}
	res.Run(horizon)
	t.AddRowf("resumed run identical", slices.Equal(ph.PerLPEvents(), res.PerLPEvents()))
	return t
}
