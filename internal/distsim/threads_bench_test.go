package distsim

import (
	"fmt"
	"testing"
)

// BenchmarkWorkerWindowParallel prices one lookahead window of the
// intra-worker execution path at several pool widths. The dense case
// (no holds) holds too little work to share out, so the pool runs it
// inline at every width (inline_frac near 1) and what is left of the
// dispatch-and-barrier overhead is the trial windows; the skewed case
// gives the hot LPs a wall-clock
// hold per event — the parallelizable stretch — so the threads-4 over
// threads-1 ns/op ratio is the intra-worker speedup (acceptance asks
// >= 1.3x on the 4-LP skewed workload; DESIGN.md §5.9 has the
// measured 1.48x). Deliver runs
// outside the timed region, so allocs/op isolates the pooled outbox
// path: Send into per-LP buffers, pool barrier, canonical-order flush
// — which must stay allocation-free in steady state.
func BenchmarkWorkerWindowParallel(b *testing.B) {
	for _, load := range []struct {
		name   string
		hot    int
		skew   float64
		holdNs int
	}{
		{"dense", 0, 1, 0},
		{"skewed", 2, 4, 200_000},
	} {
		for _, threads := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/threads-%d", load.name, threads), func(b *testing.B) {
				b.ReportAllocs()
				h := NewWorkerWindowBench(threads, 4, 8, 0.3, 5, load.hot, load.skew, load.holdNs)
				defer h.Close()
				h.Window() // warm: size the buffers
				h.Deliver()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					h.Window()
					b.StopTimer()
					h.Deliver()
					b.StartTimer()
				}
				b.StopTimer()
				if h.Events() == 0 {
					b.Fatal("benchmark executed no events")
				}
				st := h.PoolStats()
				b.ReportMetric(float64(st.Inline)/float64(st.Inline+st.Dispatched), "inline_frac")
			})
		}
	}
}
