package netsim

import (
	"math"
	"strings"
	"testing"

	"repro/internal/des"
)

// line builds a chain topology n0 - n1 - ... - n(k-1) with uniform
// link parameters.
func line(k int, bps, lat float64) (*Topology, []*Node) {
	topo := NewTopology()
	nodes := make([]*Node, k)
	for i := range nodes {
		nodes[i] = topo.AddNode("n" + string(rune('0'+i)))
	}
	for i := 0; i+1 < k; i++ {
		topo.Connect(nodes[i], nodes[i+1], bps, lat)
	}
	return topo, nodes
}

func TestRouteDirectAndMultiHop(t *testing.T) {
	topo, nodes := line(4, 100, 0.01)
	r := topo.Route(nodes[0], nodes[3])
	if len(r) != 3 {
		t.Fatalf("route length = %d", len(r))
	}
	if r[0].From != nodes[0] || r[2].To != nodes[3] {
		t.Fatal("route endpoints wrong")
	}
	if got := topo.Route(nodes[2], nodes[2]); len(got) != 0 || got == nil {
		t.Fatalf("self route = %v", got)
	}
	if lat := topo.PathLatency(nodes[0], nodes[3]); math.Abs(lat-0.03) > 1e-12 {
		t.Fatalf("path latency = %v", lat)
	}
}

func TestRouteUnreachable(t *testing.T) {
	topo := NewTopology()
	a := topo.AddNode("a")
	b := topo.AddNode("b")
	if r := topo.Route(a, b); r != nil {
		t.Fatalf("route = %v, want nil", r)
	}
	if lat := topo.PathLatency(a, b); lat != -1 {
		t.Fatalf("latency = %v", lat)
	}
}

func TestRouteShortestPath(t *testing.T) {
	// Triangle with an extra detour: a-b direct plus a-c-b; BFS must
	// pick the 1-hop route.
	topo := NewTopology()
	a, b, c := topo.AddNode("a"), topo.AddNode("b"), topo.AddNode("c")
	topo.Connect(a, b, 100, 0.5)
	topo.Connect(a, c, 100, 0.001)
	topo.Connect(c, b, 100, 0.001)
	if r := topo.Route(a, b); len(r) != 1 {
		t.Fatalf("route hops = %d, want 1", len(r))
	}
}

// A route is built once per pair and shared until the routes are
// recomputed; a new link shows after recomputing, and appending to a
// returned route never writes into the shared one.
func TestRouteCachedUntilRecompute(t *testing.T) {
	topo, nodes := line(4, 100, 0.01)
	r := topo.Route(nodes[0], nodes[3])
	if again := topo.Route(nodes[0], nodes[3]); &again[0] != &r[0] {
		t.Fatal("second Route built a new path")
	}
	if allocs := testing.AllocsPerRun(100, func() { topo.Route(nodes[0], nodes[3]) }); allocs != 0 {
		t.Fatalf("cached Route allocates %v times", allocs)
	}
	_ = append(r, r[0])
	if again := topo.Route(nodes[0], nodes[3]); len(again) != 3 || cap(again) != 3 {
		t.Fatalf("cached route changed by a caller's append: len %d cap %d", len(again), cap(again))
	}
	topo.Connect(nodes[0], nodes[3], 100, 0.01)
	topo.ComputeRoutes()
	if r := topo.Route(nodes[0], nodes[3]); len(r) != 1 {
		t.Fatalf("route after recompute has %d hops, want 1", len(r))
	}
}

// TestConnectValidation: Connect panics up front, naming the values,
// unless capacity is finite and positive and latency finite and not
// negative. A NaN capacity would stall every flow over the link, and a
// NaN or infinite latency would reach the engine only at the first
// transfer.
func TestConnectValidation(t *testing.T) {
	topo := NewTopology()
	a := topo.AddNode("a")
	b := topo.AddNode("b")
	inf, nan := math.Inf(1), math.NaN()
	for _, c := range []struct {
		name         string
		bps, latency float64
		want         string // in the panic message
	}{
		{"zero bps", 0, 0, "bps=0 "},
		{"negative bps", -1, 0, "bps=-1 "},
		{"NaN bps", nan, 0, "bps=NaN "},
		{"+Inf bps", inf, 0, "bps=+Inf "},
		{"-Inf bps", -inf, 0, "bps=-Inf "},
		{"negative latency", 1, -1, "latency=-1,"},
		{"NaN latency", 1, nan, "latency=NaN,"},
		{"+Inf latency", 1, inf, "latency=+Inf,"},
	} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, c.want) {
					t.Errorf("%s: panic %q, want one naming %q", c.name, msg, c.want)
				}
			}()
			topo.Connect(a, b, c.bps, c.latency)
		}()
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("self: no panic")
			}
		}()
		topo.Connect(a, a, 1, 0)
	}()
	if len(topo.Links()) != 0 {
		t.Fatalf("refused Connects left %d links", len(topo.Links()))
	}
	topo.Connect(a, b, math.SmallestNonzeroFloat64, 0) // the extremes that are accepted
	topo.Connect(a, b, math.MaxFloat64, math.MaxFloat64)
}

func TestFlowSingleTransferTiming(t *testing.T) {
	e := des.NewEngine()
	topo, nodes := line(2, 1000, 0.25) // 1000 B/s, 0.25 s latency
	net := NewNetwork(e, topo)
	var doneAt float64 = -1
	net.Transfer(nodes[0], nodes[1], 5000, func() { doneAt = e.Now() })
	e.Run()
	// latency 0.25 + 5000/1000 = 5.25
	if math.Abs(doneAt-5.25) > 1e-9 {
		t.Fatalf("doneAt = %v, want 5.25", doneAt)
	}
	if net.Completed() != 1 || net.ActiveFlows() != 0 {
		t.Fatal("flow accounting wrong")
	}
}

func TestFlowFairSharing(t *testing.T) {
	// Two simultaneous flows over one link: each gets half the
	// bandwidth, so both finish together at latency + 2*size/bw.
	e := des.NewEngine()
	topo, nodes := line(2, 1000, 0)
	net := NewNetwork(e, topo)
	var t1, t2 float64
	net.Transfer(nodes[0], nodes[1], 1000, func() { t1 = e.Now() })
	net.Transfer(nodes[0], nodes[1], 1000, func() { t2 = e.Now() })
	e.Run()
	if math.Abs(t1-2) > 1e-9 || math.Abs(t2-2) > 1e-9 {
		t.Fatalf("t1=%v t2=%v, want 2", t1, t2)
	}
}

func TestFlowRateRecoversAfterCompetitorFinishes(t *testing.T) {
	// Flow A: 3000 B; Flow B: 1000 B, same 1000 B/s link, both start
	// at 0. Shared until B finishes at t=2 (each at 500 B/s, B moved
	// 1000). A then has 2000 left at full rate → done at t=4.
	e := des.NewEngine()
	topo, nodes := line(2, 1000, 0)
	net := NewNetwork(e, topo)
	var ta, tb float64
	net.Transfer(nodes[0], nodes[1], 3000, func() { ta = e.Now() })
	net.Transfer(nodes[0], nodes[1], 1000, func() { tb = e.Now() })
	e.Run()
	if math.Abs(tb-2) > 1e-9 {
		t.Fatalf("tb = %v, want 2", tb)
	}
	if math.Abs(ta-4) > 1e-9 {
		t.Fatalf("ta = %v, want 4", ta)
	}
}

func TestFlowMaxMinBottleneck(t *testing.T) {
	// Y topology: a-c and b-c feed into c-d (the bottleneck).
	// Flow1 a→d, Flow2 b→d: each gets half of c-d.
	e := des.NewEngine()
	topo := NewTopology()
	a, b, c, d := topo.AddNode("a"), topo.AddNode("b"), topo.AddNode("c"), topo.AddNode("d")
	topo.Connect(a, c, 10000, 0)
	topo.Connect(b, c, 10000, 0)
	topo.Connect(c, d, 1000, 0)
	net := NewNetwork(e, topo)
	var t1, t2 float64
	net.Transfer(a, d, 1000, func() { t1 = e.Now() })
	net.Transfer(b, d, 1000, func() { t2 = e.Now() })
	e.Run()
	if math.Abs(t1-2) > 1e-9 || math.Abs(t2-2) > 1e-9 {
		t.Fatalf("t1=%v t2=%v, want 2 (bottleneck share)", t1, t2)
	}
}

func TestFlowMaxMinUnevenRoutes(t *testing.T) {
	// Flow1 uses only link1 (cap 1000); Flow2 uses link1+link2 where
	// link2 caps it at 250. Max-min: Flow2 = 250, Flow1 = 750.
	e := des.NewEngine()
	topo := NewTopology()
	a, b, c := topo.AddNode("a"), topo.AddNode("b"), topo.AddNode("c")
	topo.Connect(a, b, 1000, 0)
	topo.Connect(b, c, 250, 0)
	net := NewNetwork(e, topo)
	// Keep both flows alive long enough to observe rates.
	var f1, f2 *Flow
	var r1, r2 float64
	net.Transfer(a, b, 1e6, nil)
	net.Transfer(a, c, 1e6, nil)
	e.Schedule(1, func() {
		_ = f1
		_ = f2
		for _, f := range net.flows {
			if f.Dst == b {
				r1 = f.Rate()
			} else {
				r2 = f.Rate()
			}
		}
		e.Stop()
	})
	e.Run()
	if math.Abs(r2-250) > 1e-9 {
		t.Fatalf("r2 = %v, want 250", r2)
	}
	if math.Abs(r1-750) > 1e-9 {
		t.Fatalf("r1 = %v, want 750", r1)
	}
}

func TestFlowZeroBytes(t *testing.T) {
	e := des.NewEngine()
	topo, nodes := line(2, 1000, 0.5)
	net := NewNetwork(e, topo)
	var doneAt float64 = -1
	net.Transfer(nodes[0], nodes[1], 0, func() { doneAt = e.Now() })
	e.Run()
	if doneAt != 0.5 {
		t.Fatalf("zero-byte transfer done at %v, want latency 0.5", doneAt)
	}
}

func TestFlowSelfTransfer(t *testing.T) {
	e := des.NewEngine()
	topo, nodes := line(2, 1000, 0.5)
	net := NewNetwork(e, topo)
	done := false
	net.Transfer(nodes[0], nodes[0], 12345, func() { done = true })
	e.Run()
	if !done || e.Now() != 0 {
		t.Fatalf("self transfer done=%v at %v", done, e.Now())
	}
}

func TestFlowBackgroundLoad(t *testing.T) {
	e := des.NewEngine()
	topo, nodes := line(2, 1000, 0)
	ab := topo.Links()[0]
	ab.BackgroundLoad = 0.75
	net := NewNetwork(e, topo)
	var doneAt float64
	net.Transfer(nodes[0], nodes[1], 1000, func() { doneAt = e.Now() })
	e.Run()
	if math.Abs(doneAt-4) > 1e-9 {
		t.Fatalf("doneAt = %v, want 4 with 75%% background load", doneAt)
	}
}

// TestStalledLinkHoldsTransfers: a link with no usable capacity holds
// what must cross it, at either granularity. The run ends with that
// transfer unfinished and nothing carried on the link, while a
// transfer sharing its first hop finishes.
func TestStalledLinkHoldsTransfers(t *testing.T) {
	type fabric interface {
		Fabric
		Completed() uint64
	}
	for _, packets := range []bool{false, true} {
		e := des.NewEngine()
		topo, nodes := line(3, 1000, 0)
		stalled := topo.Links()[2] // n1→n2
		stalled.BackgroundLoad = 1
		var net fabric = NewNetwork(e, topo)
		if packets {
			net = NewPacketNet(e, topo, 100)
		}
		crossed, beside := false, false
		net.Transfer(nodes[0], nodes[2], 1000, func() { crossed = true })
		net.Transfer(nodes[0], nodes[1], 1000, func() { beside = true })
		e.Run()
		if crossed || !beside || net.Completed() != 1 || stalled.BytesCarried() != 0 {
			t.Fatalf("packets %v: across the stalled link done=%v, beside it done=%v, %d completed, %v bytes carried",
				packets, crossed, beside, net.Completed(), stalled.BytesCarried())
		}
	}
}

func TestFlowBlockingSend(t *testing.T) {
	e := des.NewEngine()
	topo, nodes := line(2, 1000, 0)
	net := NewNetwork(e, topo)
	var resumed float64 = -1
	e.Spawn("sender", func(p *des.Process) {
		net.Send(p, nodes[0], nodes[1], 2000)
		resumed = p.Now()
	})
	e.Run()
	if math.Abs(resumed-2) > 1e-9 {
		t.Fatalf("resumed = %v, want 2", resumed)
	}
}

func TestFlowLinkAccounting(t *testing.T) {
	e := des.NewEngine()
	topo, nodes := line(3, 1000, 0)
	net := NewNetwork(e, topo)
	net.Transfer(nodes[0], nodes[2], 500, nil)
	e.Run()
	for i, l := range topo.Links() {
		carried := l.BytesCarried()
		onRoute := l.From.ID < l.To.ID // forward direction links
		if onRoute && math.Abs(carried-500) > 1e-6 {
			t.Fatalf("link %d carried %v, want 500", i, carried)
		}
		if !onRoute && carried != 0 {
			t.Fatalf("reverse link %d carried %v", i, carried)
		}
	}
}

func TestFlowDeterminism(t *testing.T) {
	run := func() []float64 {
		e := des.NewEngine(des.WithSeed(5))
		topo, nodes := line(4, 1e6, 0.01)
		net := NewNetwork(e, topo)
		src := e.Stream("sizes")
		var ends []float64
		for i := 0; i < 200; i++ {
			from := nodes[i%4]
			to := nodes[(i+1+i%3)%4]
			if from == to {
				continue
			}
			delay := float64(i) * 0.01
			size := src.Exp(1.0/1e5) + 1
			e.Schedule(delay, func() {
				net.Transfer(from, to, size, func() { ends = append(ends, e.Now()) })
			})
		}
		e.Run()
		return ends
	}
	a, b := run(), run()
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("lengths %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestPacketNetSingleMessage(t *testing.T) {
	e := des.NewEngine()
	topo, nodes := line(2, 1000, 0.1)
	pn := NewPacketNet(e, topo, 100)
	var doneAt float64
	pn.Transfer(nodes[0], nodes[1], 1000, func() { doneAt = e.Now() })
	e.Run()
	// 10 packets pipeline on one link: serialization dominates:
	// last packet finishes tx at 10*0.1s = 1.0, plus 0.1 latency.
	if math.Abs(doneAt-1.1) > 1e-9 {
		t.Fatalf("doneAt = %v, want 1.1", doneAt)
	}
	if pn.PacketsSent() != 10 {
		t.Fatalf("packets = %d", pn.PacketsSent())
	}
}

func TestPacketNetMultiHopPipelining(t *testing.T) {
	e := des.NewEngine()
	topo, nodes := line(3, 1000, 0)
	pn := NewPacketNet(e, topo, 100)
	var doneAt float64
	pn.Transfer(nodes[0], nodes[2], 1000, func() { doneAt = e.Now() })
	e.Run()
	// Store-and-forward pipelining: first packet reaches hop2 queue at
	// 0.1; hops overlap; last of 10 packets: 10*0.1 + 0.1 = 1.1.
	if math.Abs(doneAt-1.1) > 1e-9 {
		t.Fatalf("doneAt = %v, want 1.1", doneAt)
	}
	if pn.PacketsSent() != 20 { // 10 packets × 2 hops
		t.Fatalf("packets = %d", pn.PacketsSent())
	}
}

// TestPacketQueueKeepsItsArray sends a 1 000-packet message over two
// hops whose latency is long against a packet's serialization time:
// each packet reaches the second link while it still sends the one
// before, so that link's queue is pushed and popped once a packet. A
// second message on the warmed fabric reuses the queue's array; a
// queue that pops by reslicing its front loses capacity and allocates
// a new array every packet or two.
func TestPacketQueueKeepsItsArray(t *testing.T) {
	e := des.NewEngine()
	topo, nodes := line(3, 1e6, 0.01)
	pn := NewPacketNet(e, topo, 100)
	send := func() {
		pn.Transfer(nodes[0], nodes[2], 1e5, func() {})
		e.Run()
	}
	send()
	if mallocs := testing.AllocsPerRun(1, send); mallocs > 4 {
		t.Fatalf("%v mallocs for a 1 000-packet message on a warmed fabric, want at most 4", mallocs)
	}
	if pn.Completed() != 3 || pn.PacketsSent() != 6000 {
		t.Fatalf("%d messages completed, %d packets sent", pn.Completed(), pn.PacketsSent())
	}
}

func TestPacketNetPartialLastPacket(t *testing.T) {
	e := des.NewEngine()
	topo, nodes := line(2, 1000, 0)
	pn := NewPacketNet(e, topo, 100)
	var doneAt float64
	pn.Transfer(nodes[0], nodes[1], 150, func() { doneAt = e.Now() })
	e.Run()
	// Packets of 100 and 50 bytes: 0.1 + 0.05 = 0.15.
	if math.Abs(doneAt-0.15) > 1e-9 {
		t.Fatalf("doneAt = %v, want 0.15", doneAt)
	}
}

func TestPacketNetAgreesWithFlowOnQuietLink(t *testing.T) {
	// With no contention, both granularities should produce the same
	// transfer time up to one packet's worth of quantization.
	const bytes, bps = 1e6, 1e5
	eF := des.NewEngine()
	topoF, nodesF := line(2, bps, 0.02)
	netF := NewNetwork(eF, topoF)
	var tF float64
	netF.Transfer(nodesF[0], nodesF[1], bytes, func() { tF = eF.Now() })
	eF.Run()

	eP := des.NewEngine()
	topoP, nodesP := line(2, bps, 0.02)
	netP := NewPacketNet(eP, topoP, 1500)
	var tP float64
	netP.Transfer(nodesP[0], nodesP[1], bytes, func() { tP = eP.Now() })
	eP.Run()

	if math.Abs(tF-tP) > 1500/bps+1e-9 {
		t.Fatalf("flow %v vs packet %v differ by more than one packet time", tF, tP)
	}
}

func TestPacketNetBlockingSend(t *testing.T) {
	e := des.NewEngine()
	topo, nodes := line(2, 1000, 0)
	pn := NewPacketNet(e, topo, 100)
	var at float64 = -1
	e.Spawn("s", func(p *des.Process) {
		pn.Send(p, nodes[0], nodes[1], 200)
		at = p.Now()
	})
	e.Run()
	if math.Abs(at-0.2) > 1e-9 {
		t.Fatalf("at = %v", at)
	}
}

func TestPacketNetZeroAndSelf(t *testing.T) {
	e := des.NewEngine()
	topo, nodes := line(2, 1000, 0.3)
	pn := NewPacketNet(e, topo, 100)
	count := 0
	pn.Transfer(nodes[0], nodes[1], 0, func() { count++ })
	pn.Transfer(nodes[0], nodes[0], 500, func() { count++ })
	e.Run()
	if count != 2 {
		t.Fatalf("count = %d", count)
	}
	if pn.Completed() != 2 {
		t.Fatalf("completed = %d", pn.Completed())
	}
}

func TestTransferPanicsOnBadInput(t *testing.T) {
	e := des.NewEngine()
	topo := NewTopology()
	a := topo.AddNode("a")
	b := topo.AddNode("b") // unreachable
	net := NewNetwork(e, topo)
	t.Run("unreachable", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		net.Transfer(a, b, 10, nil)
	})
	t.Run("negative bytes", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		net.Transfer(a, a, -1, nil)
	})
	t.Run("bad mtu", func(t *testing.T) {
		defer func() {
			if recover() == nil {
				t.Error("no panic")
			}
		}()
		NewPacketNet(e, topo, 0)
	})
}
