package netsim

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/des"
	"repro/internal/rng"
)

// TestQuickMaxMinRespectsCapacity checks the two defining invariants
// of max-min fair sharing on random topologies and flow sets:
//
//  1. feasibility — the summed rate across each link never exceeds its
//     capacity;
//  2. work conservation for single-link flows — if every flow crosses
//     one shared link, the full capacity is allocated.
func TestQuickMaxMinRespectsCapacity(t *testing.T) {
	f := func(seed uint64, nFlowsRaw uint8) bool {
		src := rng.New(seed)
		nFlows := int(nFlowsRaw%20) + 1
		e := des.NewEngine()
		topo := NewTopology()
		// Random chain of 3-6 nodes.
		nNodes := 3 + src.Intn(4)
		nodes := make([]*Node, nNodes)
		for i := range nodes {
			nodes[i] = topo.AddNode("n")
		}
		caps := make([]float64, nNodes-1)
		for i := 0; i+1 < nNodes; i++ {
			caps[i] = 100 + src.Float64()*1000
			topo.Connect(nodes[i], nodes[i+1], caps[i], 0)
		}
		net := NewNetwork(e, topo)
		// Start flows between random distinct nodes; huge sizes so all
		// stay active at observation time.
		for i := 0; i < nFlows; i++ {
			a := src.Intn(nNodes)
			b := src.Intn(nNodes)
			if a == b {
				continue
			}
			net.Transfer(nodes[a], nodes[b], 1e15, nil)
		}
		ok := true
		e.Schedule(0.001, func() {
			// Feasibility per directed link.
			load := map[*Link]float64{}
			for _, fl := range net.flows {
				if fl.Rate() < 0 {
					ok = false
				}
				for _, l := range fl.route {
					load[l] += fl.Rate()
				}
			}
			for l, sum := range load {
				if sum > l.usable()+1e-6 {
					ok = false
				}
			}
			e.Stop()
		})
		e.RunUntil(0.002)
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestMaxMinWorkConserving(t *testing.T) {
	// N flows over one link: each gets exactly capacity/N.
	for _, n := range []int{1, 2, 3, 7, 16} {
		e := des.NewEngine()
		topo, nodes := line(2, 1000, 0)
		net := NewNetwork(e, topo)
		for i := 0; i < n; i++ {
			net.Transfer(nodes[0], nodes[1], 1e12, nil)
		}
		e.Schedule(0.001, func() {
			total := 0.0
			for _, f := range net.flows {
				total += f.Rate()
				if math.Abs(f.Rate()-1000/float64(n)) > 1e-6 {
					t.Errorf("n=%d: flow rate %v, want %v", n, f.Rate(), 1000/float64(n))
				}
			}
			if math.Abs(total-1000) > 1e-6 {
				t.Errorf("n=%d: total %v, want 1000", n, total)
			}
			e.Stop()
		})
		e.RunUntil(0.002)
	}
}

// TestQuickTransfersAllComplete: any batch of finite transfers on a
// connected topology eventually completes, and byte accounting is
// conserved.
func TestQuickTransfersAllComplete(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		src := rng.New(seed)
		n := int(nRaw%30) + 1
		e := des.NewEngine()
		topo, nodes := line(4, 1e6, 0.001)
		net := NewNetwork(e, topo)
		done := 0
		totalBytes := 0.0
		for i := 0; i < n; i++ {
			a := nodes[src.Intn(4)]
			b := nodes[src.Intn(4)]
			size := src.Float64() * 1e6
			totalBytes += size
			net.Transfer(a, b, size, func() { done++ })
		}
		e.Run()
		return done == n && net.ActiveFlows() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestQuickPacketNetCompletes mirrors the flow-level property at
// packet granularity.
func TestQuickPacketNetCompletes(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		src := rng.New(seed)
		n := int(nRaw%10) + 1
		e := des.NewEngine()
		topo, nodes := line(3, 1e6, 0.001)
		pn := NewPacketNet(e, topo, 1000)
		done := 0
		for i := 0; i < n; i++ {
			a := nodes[src.Intn(3)]
			b := nodes[src.Intn(3)]
			pn.Transfer(a, b, src.Float64()*5e4, func() { done++ })
		}
		e.Run()
		return done == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}
