package distsim

import (
	"testing"

	"repro/internal/winsync"
)

// BenchmarkMigrationCost prices the worker half of one live LP
// migration round trip, without the wire: two extract+adopt transfers
// of LP 0 between two offline PHOLD groups (the E5 shape: 16 jobs per
// LP) and back, so the groups end as they started. Divide ns/op by
// migrations_per_op for the per-migration cost, what a migration adds
// to a barrier on top of two coordinator round trips; state_bytes is
// the serialized LP payload a migration puts on the wire.
func BenchmarkMigrationCost(b *testing.B) {
	m := &winsync.PHOLD{TotalLPs: 6, JobsPerLP: 16, RemoteProb: 0.2, Work: 50, DelayFactor: 4}
	mk := func(ids ...int) *winsync.Group {
		g := pholdGroup(m, ids...)
		// Run into the first window so the FELs hold a realistic mid-run
		// population (initial jobs rescheduled, inbox non-empty).
		for _, lp := range g.LPs() {
			lp.E.RunUntil(1.0)
		}
		g.Flush(nil)
		return g
	}
	a, c := mk(0, 1, 2), mk(3, 4, 5)
	var stateBytes int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, dir := range [2][2]*winsync.Group{{a, c}, {c, a}} {
			img, err := dir[0].Extract(0)
			if err != nil {
				b.Fatal(err)
			}
			stateBytes = len(img)
			if err := dir[1].Adopt(img); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(stateBytes), "state_bytes")
	b.ReportMetric(2, "migrations_per_op")
}
