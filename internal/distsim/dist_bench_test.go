package distsim

import "testing"

// benchDistWindows drives a two-worker loopback federation running m
// for exactly b.N lookahead windows, so ns/op reads as nanoseconds per
// window slot of the lattice (barrier cost) and allocs/op as
// coordinator-side allocations per window. Each worker hosts half the
// LPs.
func benchDistWindows(b *testing.B, m PHOLDModel, la float64) {
	b.ReportAllocs()
	const seed = 1234
	c := NewCoordinator(m.TotalLPs, la, la*float64(b.N), seed)
	workers := make([]*Worker, 2)
	half := m.TotalLPs / 2
	for wi := range workers {
		ids := make([]int, 0, half)
		for lp := wi * half; lp < (wi+1)*half; lp++ {
			ids = append(ids, lp)
		}
		workers[wi] = NewWorker(ids...)
		own := m
		InstallPHOLDModel(workers[wi], &own)
	}
	b.ResetTimer()
	if err := Loopback(c, workers, nil); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	b.ReportMetric(float64(c.EventsRouted)/float64(b.N), "routed/op")
	b.ReportMetric(float64(c.WindowsSkipped)/float64(b.N), "skipped/op")
}

// BenchmarkDistWindowThroughput is window throughput of the distributed
// engine over real loopback TCP.
//
//   - dense:  canonical PHOLD over 6 LPs (6 jobs/LP, mean spacing 4
//     lookaheads, ~2 routed events per window) — barrier latency and
//     the pooled wire path.
//   - sparse: sparse PHOLD (1 job/LP, spacing 64 lookaheads) — empty
//     stretches of the lattice are jumped in the coordinator.
//   - heavy:  lsbench cluster-dense's shape (64 LPs, 64 jobs/LP, work
//     200, ~1000 events per window) — model execution dominates, so the
//     barrier costs the slower worker's compute plus the frames'
//     transfer.
func BenchmarkDistWindowThroughput(b *testing.B) {
	small := PHOLDModel{TotalLPs: 6, JobsPerLP: 6, RemoteProb: 0.4, Work: 5, DelayFactor: 4, SkewFactor: 1}
	sparse := small
	sparse.JobsPerLP, sparse.DelayFactor = 1, 64
	heavy := PHOLDModel{TotalLPs: 64, JobsPerLP: 64, RemoteProb: 0.2, Work: 200, DelayFactor: 4, SkewFactor: 1}
	b.Run("dense", func(b *testing.B) { benchDistWindows(b, small, 0.5) })
	b.Run("sparse", func(b *testing.B) { benchDistWindows(b, sparse, 0.5) })
	b.Run("heavy", func(b *testing.B) { benchDistWindows(b, heavy, 1) })
}
