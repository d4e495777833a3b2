package distsim

import "repro/internal/winsync"

// MigrationBench drives the worker half of one live LP migration round
// trip — the donor group cutting the LP's image (engine snapshot, model
// state, inbox) plus the receiver adopting it (model install, engine
// restore) — in isolation, without the wire. Exported for
// BenchmarkMigrationCost; not part of the simulation API. The measured
// cost is what a migration adds to a window barrier on top of two
// coordinator round trips.
type MigrationBench struct {
	a, b *winsync.Group
	// StateBytes is the image size of the last extraction — the
	// per-migration wire cost.
	StateBytes int
}

// NewMigrationBench builds two offline PHOLD groups (the E5 shape:
// 16 jobs per LP) with warmed engines, ready to trade LP 0 back and
// forth.
func NewMigrationBench() *MigrationBench {
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
	return &MigrationBench{a: mk(0, 1, 2), b: mk(3, 4, 5)}
}

// Cycle migrates LP 0 from one group to the other and back: two full
// extract+adopt transfers, leaving both groups exactly as they
// started so cycles can repeat indefinitely.
func (mb *MigrationBench) Cycle() error {
	for _, dir := range [2][2]*winsync.Group{{mb.a, mb.b}, {mb.b, mb.a}} {
		donor, recv := dir[0], dir[1]
		img, err := donor.Extract(0)
		if err != nil {
			return err
		}
		mb.StateBytes = len(img)
		if err := recv.Adopt(img); err != nil {
			return err
		}
	}
	return nil
}
