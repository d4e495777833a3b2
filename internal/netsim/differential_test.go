package netsim

import (
	"math"
	"testing"

	"repro/internal/des"
	"repro/internal/rng"
)

// transferer is what the differential harness drives: Network and the
// reference share it.
type transferer interface {
	Transfer(src, dst *Node, bytes float64, done func())
}

// diffResult is everything simulated that one scenario run produces,
// floats as their bit patterns.
type diffResult struct {
	start, end []uint64 // per transfer: engine clock at Transfer and at done
	order      []int    // transfer indices in completion order; -1-i is transfer i's zero-delay marker event
	carried    []uint64 // per directed link, creation order
	executed   uint64
	now        uint64
}

const neverFinished = math.MaxUint64

// pick draws from a small set of round values with probability 2/3, so
// that equal capacities, sizes and instants (hence ties) are common,
// and a free draw otherwise.
func pick(src *rng.Source, round []float64, lo, hi float64) float64 {
	if src.Intn(3) > 0 {
		return round[src.Intn(len(round))]
	}
	return src.Uniform(lo, hi)
}

// runScenario builds the topology and the transfer schedule that seed
// describes and runs them on the fabric mk returns. Transfers are drawn
// as they are issued, in event order, so two fabrics that order events
// alike are posed the same problem, and two that do not diverge in ways
// the comparison reports.
func runScenario(seed uint64, mk func(*des.Engine, *Topology, float64) transferer) diffResult {
	src := rng.New(seed)
	e := des.NewEngine()
	topo := NewTopology()

	// A random tree plus up to two chords: routes of several hops that
	// share links in both directions.
	nodes := make([]*Node, 2+src.Intn(6))
	for i := range nodes {
		nodes[i] = topo.AddNode("n")
	}
	connect := func(a, b int) {
		bps := pick(src, []float64{1000, 1024, 1 << 20}, 10, 1e6)
		lat := pick(src, []float64{0, 0, 0.25}, 0, 0.1)
		topo.Connect(nodes[a], nodes[b], bps, lat)
	}
	for i := 1; i < len(nodes); i++ {
		connect(i, src.Intn(i))
	}
	for k := src.Intn(3); k > 0; k-- {
		if a, b := src.Intn(len(nodes)), src.Intn(len(nodes)); a != b {
			connect(a, b)
		}
	}
	for _, l := range topo.Links() {
		switch r := src.Intn(20); {
		case r == 0:
			l.BackgroundLoad = 1 // no usable capacity: flows across it stall
		case r < 5:
			l.BackgroundLoad = src.Uniform(0, 0.9)
		}
	}
	eff := 1.0
	if src.Intn(2) == 0 {
		eff = src.Uniform(0.2, 1)
	}
	net := mk(e, topo, eff)

	var res diffResult
	var transfer func(chain int)
	transfer = func(chain int) {
		i := len(res.start)
		a, b := src.Intn(len(nodes)), src.Intn(len(nodes)) // a == b: self transfer
		bytes := pick(src, []float64{0, 1000, 4096, 1 << 20}, 1, 1e7)
		chained := chain > 0 && src.Intn(3) == 0
		res.start = append(res.start, math.Float64bits(e.Now()))
		res.end = append(res.end, neverFinished)
		net.Transfer(nodes[a], nodes[b], bytes, func() {
			res.end[i] = math.Float64bits(e.Now())
			res.order = append(res.order, i)
			// Whatever done schedules for this instant must keep its
			// place against completions that are also due now.
			e.Schedule(0, func() { res.order = append(res.order, -1-i) })
			if chained {
				transfer(chain - 1)
			}
		})
	}
	for k := 1 + src.Intn(60); k > 0; k-- {
		e.At(pick(src, []float64{0, 0, 0.5, 1, 4}, 0, 8), func() { transfer(2) })
	}
	e.Run()

	for _, l := range topo.Links() {
		res.carried = append(res.carried, math.Float64bits(l.BytesCarried()))
	}
	res.executed = e.Stats().Executed
	res.now = math.Float64bits(e.Now())
	return res
}

// TestDifferentialAgainstPerFlowTimers runs seeded random topologies
// and transfer schedules through Network and through the per-flow-timer
// reference, and requires every simulated result to match bit for bit:
// each transfer's start and end (what Flow.Start and Flow.End report),
// the completion order interleaved with same-instant events, every
// link's BytesCarried, the executed-event count and the final clock.
func TestDifferentialAgainstPerFlowTimers(t *testing.T) {
	var finished, stalled, ties int
	for seed := uint64(1); seed <= 400; seed++ {
		got := runScenario(seed, func(e *des.Engine, topo *Topology, eff float64) transferer {
			n := NewNetwork(e, topo)
			n.Efficiency = eff
			return n
		})
		want := runScenario(seed, func(e *des.Engine, topo *Topology, eff float64) transferer {
			return &refNetwork{e: e, topo: topo, Efficiency: eff}
		})
		if len(got.start) != len(want.start) || len(got.order) != len(want.order) {
			t.Fatalf("seed %d: %d transfers, %d completions; reference %d, %d",
				seed, len(got.start), len(got.order), len(want.start), len(want.order))
		}
		for i := range want.start {
			if got.start[i] != want.start[i] || got.end[i] != want.end[i] {
				t.Fatalf("seed %d transfer %d: start/end %v/%v, reference %v/%v", seed, i,
					math.Float64frombits(got.start[i]), math.Float64frombits(got.end[i]),
					math.Float64frombits(want.start[i]), math.Float64frombits(want.end[i]))
			}
			if want.end[i] == neverFinished {
				stalled++
			} else {
				finished++
			}
		}
		for i := range want.order {
			if got.order[i] != want.order[i] {
				t.Fatalf("seed %d: completion %d is %d, reference %d", seed, i, got.order[i], want.order[i])
			}
			if i > 0 && want.order[i] >= 0 && want.order[i-1] >= 0 &&
				want.end[want.order[i]] == want.end[want.order[i-1]] {
				ties++
			}
		}
		for i := range want.carried {
			if got.carried[i] != want.carried[i] {
				t.Fatalf("seed %d link %d: carried %v, reference %v", seed, i,
					math.Float64frombits(got.carried[i]), math.Float64frombits(want.carried[i]))
			}
		}
		if got.executed != want.executed || got.now != want.now {
			t.Fatalf("seed %d: executed %d at %v, reference %d at %v", seed, got.executed,
				math.Float64frombits(got.now), want.executed, math.Float64frombits(want.now))
		}
	}
	// The scenarios must reach the cases the comparison is for.
	if finished < 1000 || stalled == 0 || ties == 0 {
		t.Fatalf("weak scenarios: %d finished, %d stalled, %d back-to-back ties", finished, stalled, ties)
	}
	t.Logf("%d transfers finished, %d stalled, %d back-to-back same-instant completions", finished, stalled, ties)
}

// TestEqualFlowsFinishTogetherInStartOrder: k equal flows admitted at
// one instant on one bottleneck all finish at the identical instant, in
// start order. The sizes divide exactly, so no flow is left a rounding
// residue that would push it to a later instant.
func TestEqualFlowsFinishTogetherInStartOrder(t *testing.T) {
	for _, k := range []int{2, 4, 8, 64} {
		e := des.NewEngine()
		topo, nodes := line(3, 1024, 0)
		net := NewNetwork(e, topo)
		var order []int
		var ends []float64
		for i := 0; i < k; i++ {
			i := i
			net.Transfer(nodes[0], nodes[2], 1<<20, func() {
				order = append(order, i)
				ends = append(ends, e.Now())
			})
		}
		e.Run()
		if len(order) != k {
			t.Fatalf("k=%d: %d flows finished", k, len(order))
		}
		for i := range order {
			if order[i] != i {
				t.Fatalf("k=%d: completion order %v, want start order", k, order)
			}
			if math.Float64bits(ends[i]) != math.Float64bits(float64(k)*1024) {
				t.Fatalf("k=%d: flow %d ended at %v, want %v", k, i, ends[i], float64(k)*1024)
			}
		}
	}
}

// TestInstantsThatRoundTogetherTieInStartOrder: two flows on separate
// links whose remaining/rate differ but whose completion instants, as
// the engine computes them (now + remaining/rate), round to one value.
// That is a tie, and the earlier-started flow completes first even
// though its remaining/rate is the larger; the reference agrees.
func TestInstantsThatRoundTogetherTieInStartOrder(t *testing.T) {
	const t0 = 1 << 30 // ulp(t0) is 2^-22, far above the 1e-9 the flows differ by
	run := func(mk func(*des.Engine, *Topology) transferer) (order []int, ends []float64) {
		e := des.NewEngine()
		topo := NewTopology()
		a, b, c, d := topo.AddNode("a"), topo.AddNode("b"), topo.AddNode("c"), topo.AddNode("d")
		topo.Connect(a, b, 1, 0)
		topo.Connect(c, d, 1, 0)
		net := mk(e, topo)
		done := func(i int) func() {
			return func() { order, ends = append(order, i), append(ends, e.Now()) }
		}
		e.At(t0, func() {
			net.Transfer(a, b, 1+1e-9, done(0))
			net.Transfer(c, d, 1, done(1))
		})
		e.Run()
		return order, ends
	}
	order, ends := run(func(e *des.Engine, topo *Topology) transferer { return NewNetwork(e, topo) })
	refOrder, refEnds := run(func(e *des.Engine, topo *Topology) transferer {
		return &refNetwork{e: e, topo: topo, Efficiency: 1}
	})
	for i, want := range []int{0, 1} {
		if order[i] != want || refOrder[i] != want || ends[i] != t0+1 || refEnds[i] != t0+1 {
			t.Fatalf("order %v at %v, reference %v at %v; want [0 1], both at %v", order, ends, refOrder, refEnds, float64(t0+1))
		}
	}
}
