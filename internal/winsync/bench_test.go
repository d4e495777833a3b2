package winsync

import (
	"testing"

	"repro/internal/des"
)

// BenchmarkMessagePath is the cost of one cross-LP message through the
// kernel, per message: Send into the sender's outbox, Flush to the
// inbox, Deliver into the receiver's table and engine, and the
// winsync.msg event calling OnMessage. LP 0 sends up to 256 messages
// from one event per window; LP 1 receives them in the next.
func BenchmarkMessagePath(b *testing.B) {
	const batch = 256
	g := NewGroup([]int{0, 1}, 2, 1, 7)
	src, dst := g.LP(0), g.LP(1)
	src.OnMessage = func(Event) {}
	handled := 0
	dst.OnMessage = func(Event) { handled++ }
	left := b.N
	var tick des.Op
	tick = src.E.RegisterOp("bench.tick", func([]byte) {
		n := min(batch, left)
		left -= n
		for range n {
			src.Send(1, 1, nil)
		}
		if left > 0 {
			src.E.ScheduleOp(1, tick, nil)
		}
	})
	src.E.ScheduleOp(0.5, tick, nil)
	if err := g.Start(1); err != nil {
		b.Fatal(err)
	}
	defer g.Stop()
	b.ReportAllocs()
	b.ResetTimer()
	for end := 1.0; handled < b.N; end++ {
		g.RunWindow(end, uint64(end))
		g.Flush(nil)
		g.Deliver(nil)
	}
}
