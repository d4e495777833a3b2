package distsim

import "testing"

// benchDistWindows drives a two-worker loopback federation for exactly
// b.N lookahead windows, so ns/op reads as nanoseconds per window slot
// of the lattice (barrier cost) and allocs/op as coordinator-side
// allocations per window. jobs and factor select the traffic regime:
// the dense case is the E5 PHOLD configuration, the sparse case leaves
// most windows empty so next-event-time skipping can jump them.
func benchDistWindows(b *testing.B, jobs int, factor float64) {
	b.ReportAllocs()
	const (
		lps    = 6
		la     = 0.5
		remote = 0.4
		work   = 5
		seed   = 1234
	)
	horizon := la * float64(b.N)
	c := NewCoordinator(lps, la, horizon, seed)
	workers := []*Worker{NewWorker(0, 1, 2), NewWorker(3, 4, 5)}
	for _, w := range workers {
		InstallPHOLDFactor(w, lps, jobs, remote, work, factor)
	}
	b.ResetTimer()
	if err := Loopback(c, workers, nil); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(c.EventsRouted)/float64(b.N), "routed/op")
	b.ReportMetric(float64(c.WindowsSkipped)/float64(b.N), "skipped/op")
}

// BenchmarkDistWindowThroughput is the PR-6 headline benchmark: window
// throughput of the distributed engine over real loopback TCP.
//
//   - dense:         canonical PHOLD (6 jobs/LP, mean spacing 4
//     lookaheads) — measures barrier latency and the pooled wire path.
//   - sparse: sparse PHOLD (1 job/LP, spacing 64 lookaheads) — empty
//     stretches of the lattice are jumped in the coordinator.
func BenchmarkDistWindowThroughput(b *testing.B) {
	b.Run("dense", func(b *testing.B) { benchDistWindows(b, 6, 4) })
	b.Run("sparse", func(b *testing.B) { benchDistWindows(b, 1, 64) })
}
