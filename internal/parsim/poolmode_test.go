package parsim

import (
	"testing"
	_ "unsafe" // for go:linkname
)

// poolForced is internal/pool's unexported test hook, the mode every
// pool created from now on is forced into: 0 leaves the choice to the
// pool's measurements.
//
//go:linkname poolForced repro/internal/pool.forced
var poolForced uint8

// poolAlternate is pool.alternate: inline and dispatched Runs in turn.
const poolAlternate = 3

// underPoolSwitches runs fn twice: with the pool choosing its mode by
// measurement, and with a mode switch forced between any two windows.
// Nothing a federation computes may depend on which windows ran inline.
func underPoolSwitches(t *testing.T, fn func(t *testing.T)) {
	t.Run("pool=measured", fn)
	poolForced = poolAlternate
	defer func() { poolForced = 0 }()
	t.Run("pool=alternate", func(t *testing.T) {
		fn(t)
		// The constant above is a copy: prove it still means alternation.
		ph := NewPHOLD(4, 2, 1, 4, 0.2, 0, 1)
		ph.Run(10)
		if st := ph.Fed.Snapshot().Pool; st.Inline != 5 || st.Dispatched != 5 {
			t.Fatalf("pool forced to alternate ran %+v over 10 windows", st)
		}
	})
}
