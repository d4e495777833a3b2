package netsim

import (
	"fmt"
	"testing"

	"repro/internal/des"
)

// TestEventListCostIsLinearInFlows holds N flows concurrently on one
// bottleneck and bounds what the event list saw. Each transfer
// schedules its start and re-arms the network's one completion timer
// when it starts and when it finishes; per-flow timers rescheduled on
// every change would make both counts quadratic in N.
func TestEventListCostIsLinearInFlows(t *testing.T) {
	const n = 500
	e := des.NewEngine()
	topo, nodes := line(3, 1e6, 0)
	net := NewNetwork(e, topo)
	for i := 0; i < n; i++ {
		net.Transfer(nodes[0], nodes[2], float64(1000*(i+1)), nil)
	}
	e.Run()
	if net.Completed() != n {
		t.Fatalf("%d of %d flows completed", net.Completed(), n)
	}
	s := e.Stats()
	if s.Scheduled > 4*n+8 || s.MaxQueue > n+8 {
		t.Fatalf("%d flows: %d scheduled (want <= %d), max queue %d (want <= %d)",
			n, s.Scheduled, 4*n+8, s.MaxQueue, n+8)
	}
}

// TestStaggeredArrivalsLeaveNoTombstones admits flows one at a time
// onto a busy one-link path while its first flow is still carrying:
// each admission lowers the shared rate, so it only pushes the next
// completion later, and the network moves its one timer's record in
// place instead of canceling it. A cancel per admission would leave n
// dead records for the engine to discard.
func TestStaggeredArrivalsLeaveNoTombstones(t *testing.T) {
	const n = 50
	e := des.NewEngine()
	topo, nodes := line(2, 1e6, 0)
	net := NewNetwork(e, topo)
	net.Transfer(nodes[0], nodes[1], 1e6, nil) // alone, done at t=1
	for i := 1; i <= n; i++ {
		e.Schedule(float64(i)/200, func() { net.Transfer(nodes[0], nodes[1], 1e8, nil) })
	}
	e.Run()
	if net.Completed() != n+1 {
		t.Fatalf("%d of %d flows completed", net.Completed(), n+1)
	}
	if s := e.Stats(); s.Canceled != 0 || s.MaxQueue > n+3 {
		t.Fatalf("%d tombstones discarded, want 0; max queue %d, want at most %d", s.Canceled, s.MaxQueue, n+3)
	}
}

// backlog holds n flows active on net, each finish followed by the
// admission of a flow on the same route, in the finished flow's
// record, as Transfer's start event admits it, with bytes more to
// carry. It returns the finish/start cycle.
func backlog(tb testing.TB, e *des.Engine, net *Network, src *Node, dsts []*Node, n int, bytes float64) func() {
	for i := 0; i < n; i++ {
		net.Transfer(src, dsts[i%len(dsts)], bytes*float64(i+1)/float64(n), nil)
	}
	for i := 0; i < n; i++ { // the n start events, all due now
		e.Step()
	}
	cycle := func() {
		f := net.flows[net.next]
		src, dst, route, completed := f.Src, f.Dst, f.route, net.Completed()
		if !e.Step() || net.Completed() != completed+1 {
			tb.Fatal("the earliest flow did not complete")
		}
		// The finished flow's record, taken back from the free list.
		g, self := net.k.flows.Get()
		*g = Flow{Src: src, Dst: dst, Bytes: bytes, route: route, self: self, net: net}
		net.admit(g)
	}
	for i := 0; i < 2*n; i++ { // past the tombstones admission left
		cycle()
	}
	return cycle
}

// TestRebalanceDoesNotAllocate runs a steady-state finish/start cycle
// over N concurrent flows: the earliest flow completes (advance,
// removeFlow, rebalance, finish), then is admitted again. Nothing else
// in the cycle can allocate, so zero allocations means rebalance builds
// no maps and no closures and the engine recycles the one timer's event
// record.
func TestRebalanceDoesNotAllocate(t *testing.T) {
	const n = 64
	e := des.NewEngine()
	topo, nodes := line(3, 1e6, 0)
	net := NewNetwork(e, topo)
	cycle := backlog(t, e, net, nodes[0], nodes[2:], n, 1000*n)
	if a := testing.AllocsPerRun(200, cycle); a != 0 {
		t.Fatalf("%v allocations per finish/start cycle, want 0", a)
	}
	if len(net.flows) != n || e.QueueLen() > 3 {
		t.Fatalf("%d flows active, %d event-list entries; want %d and at most 3", len(net.flows), e.QueueLen(), n)
	}
}

// BenchmarkNetworkBacklog is the T0/T1 study's shape, a T0 uplink
// into a WAN hub fanning out to four T1s, held at N active flows by
// finish/start cycles: ns and allocations per cycle.
func BenchmarkNetworkBacklog(b *testing.B) {
	for _, n := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("flows=%d", n), func(b *testing.B) {
			e := des.NewEngine()
			topo, t0, t1s := studyTopology(2.5e9 / 8)
			cycle := backlog(b, e, NewNetwork(e, topo), t0, t1s, n, 2e9)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}
