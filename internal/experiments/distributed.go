package experiments

import (
	"fmt"
	"time"

	"repro/internal/distsim"
	"repro/internal/metrics"
	"repro/internal/optsim"
	"repro/internal/parsim"
)

// E5bDistributedOverhead quantifies the paper's skepticism about
// distributed simulation (Fujimoto 1993): the identical PHOLD model
// run (a) in-process with one worker, (b) in-process with a goroutine
// pool, and (c) distributed over TCP workers on localhost. The TCP
// variant pays one framed round trip per window; the table shows exactly
// what a real deployment must amortize with model work — and asserts
// that all three produce identical event counts.
func E5bDistributedOverhead(lps, jobsPerLP, work int, horizon float64) (*metrics.Table, error) {
	const (
		lookahead = 1.0
		remote    = 0.2
		seed      = 77
	)
	t := metrics.NewTable(
		"E5b. In-process vs TCP-distributed execution (same model, same results; "+hostNote()+")",
		"execution", "events", "wall ms", "identical")

	run := func(workers int) (uint64, float64) {
		ph := parsim.NewPHOLD(lps, workers, lookahead, jobsPerLP, remote, work, seed)
		start := time.Now()
		events := ph.Run(horizon)
		return events, float64(time.Since(start).Microseconds()) / 1000
	}
	refEvents, wall1 := run(1)
	t.AddRowf("in-process, 1 worker", refEvents, wall1, "reference")
	poolEvents, wallP := run(4)
	t.AddRowf("in-process, 4 workers", poolEvents, wallP, fmt.Sprint(poolEvents == refEvents))

	// TCP-distributed across two localhost workers.
	c := distsim.NewCoordinator(lps, lookahead, horizon, seed)
	half := lps / 2
	mkWorker := func(lo, hi int) *distsim.Worker {
		ids := make([]int, 0, hi-lo)
		for i := lo; i < hi; i++ {
			ids = append(ids, i)
		}
		w := distsim.NewWorker(ids...)
		distsim.InstallPHOLD(w, lps, jobsPerLP, remote, work)
		return w
	}
	start := time.Now()
	if err := distsim.Loopback(c, []*distsim.Worker{mkWorker(0, half), mkWorker(half, lps)}, nil); err != nil {
		return nil, err
	}
	wallTCP := float64(time.Since(start).Microseconds()) / 1000
	// Model-level counts vs engine-level counts differ (engine counts
	// include wakeups); compare model events against the reference's
	// model events.
	var distEvents, refModel uint64
	for _, n := range c.PerLPCounts() {
		distEvents += n
	}
	refPH := parsim.NewPHOLD(lps, 1, lookahead, jobsPerLP, remote, work, seed)
	refPH.Run(horizon)
	for _, n := range refPH.PerLPEvents() {
		refModel += n
	}
	t.AddRowf("TCP-distributed, 2 workers", distEvents, wallTCP, fmt.Sprint(distEvents == refModel))
	return t, nil
}

// E5cOptimisticVsConservative completes the synchronization-design
// comparison: Time Warp needs no lookahead but pays state saving and
// rollback; the table reports its waste profile (rollbacks,
// anti-messages, efficiency) next to the sequential oracle it is
// verified against.
func E5cOptimisticVsConservative(lps int, horizon float64) *metrics.Table {
	t := metrics.NewTable(
		"E5c. Optimistic (Time Warp) execution cost profile",
		"engine", "committed events", "total executions", "rollbacks", "anti-msgs", "efficiency")
	model := &optsim.CountModel{N: lps, RemoteProb: 0.5, MeanDelay: 1.0, Seed: 99}
	_, seqCounts := optsim.RunSequential(model, lps, horizon)
	var seqTotal uint64
	for _, c := range seqCounts {
		seqTotal += c
	}
	t.AddRowf("sequential oracle", seqTotal, seqTotal, 0, 0, 1.0)
	f := optsim.NewFederation(model, lps, horizon)
	f.Run()
	st := f.Stats()
	t.AddRowf("time warp (round-robin)", st.NetEvents, st.Executions,
		st.Rollbacks, st.Retractions, st.Efficiency())
	return t
}
