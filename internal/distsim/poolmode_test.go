package distsim

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

// underPoolSwitches runs fn twice: with every worker's pool choosing
// its mode by measurement, and with a mode switch forced between any
// two windows. Nothing a cluster computes or sends may depend on which
// windows ran inline. Not for parallel tests: the hook is one variable.
func underPoolSwitches(t *testing.T, fn func(t *testing.T)) {
	t.Run("pool=measured", fn)
	poolForced = poolAlternate
	defer func() { poolForced = 0 }()
	t.Run("pool=alternate", func(t *testing.T) {
		fn(t)
		// The constant above is a copy: prove it still means alternation.
		h := NewWorkerWindowBench(2, 4, 8, 0.3, 5, 0, 1, 0)
		defer h.Close()
		for i := 0; i < 10; i++ {
			h.Window()
			h.Deliver()
		}
		if st := h.PoolStats(); st.Inline != 5 || st.Dispatched != 5 {
			t.Fatalf("pool forced to alternate ran %+v over 10 windows", st)
		}
	})
}
