package eventq

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// holdIncrements pre-draws the hold model's time increments, so a
// timed loop prices the queue and not the random source (Exp is a
// math.Log per draw). Both distributions have mean 1.
func holdIncrements(dist string) *[1024]float64 {
	src := rng.New(11)
	var incr [1024]float64
	for i := range incr {
		if dist == "exp" {
			incr[i] = src.Exp(1)
		} else {
			incr[i] = src.Float64() * 2
		}
	}
	return &incr
}

// BenchmarkHold is the sizing tool for a FEL change: ns per hold (pop
// the minimum, push it back later) at a steady population, for every
// kind, five depths and two increment distributions. The queue is
// turned over twice before the clock starts, so the number is the
// steady state and not the shape the bulk fill left behind. The
// heap-replace column is the hold the engine runs on its default
// queue: Peek, then ReplaceMin, one sift in place of two.
func BenchmarkHold(b *testing.B) {
	const heapReplace = "heap-replace"
	for _, k := range append(Kinds(), heapReplace) {
		for _, depth := range []int{8, 100, 1000, 10_000, 100_000} {
			if k == KindList && depth > 1000 {
				continue // O(n) insert: minutes per run, and no news
			}
			for _, dist := range []string{"uniform", "exp"} {
				b.Run(fmt.Sprintf("%s/n=%d/%s", k, depth, dist), func(b *testing.B) {
					incr := holdIncrements(dist)
					kind := k
					if k == heapReplace {
						kind = KindHeap
					}
					q := New(kind)
					src := rng.New(12)
					var seq uint64
					for i := 0; i < depth; i++ {
						seq++
						q.Push(Item{Time: src.Float64() * 2, Seq: seq})
					}
					hold := func(ops int) {
						for i := 0; i < ops; i++ {
							it, _ := q.Pop()
							seq++
							q.Push(Item{Time: it.Time + incr[i%len(incr)], Seq: seq})
						}
					}
					if k == heapReplace {
						h := q.(*Heap)
						hold = func(ops int) {
							for i := 0; i < ops; i++ {
								it, _ := h.Peek()
								seq++
								h.ReplaceMin(Item{Time: it.Time + incr[i%len(incr)], Seq: seq})
							}
						}
					}
					hold(2 * depth)
					b.ReportAllocs()
					b.ResetTimer()
					hold(b.N)
				})
			}
		}
	}
}
