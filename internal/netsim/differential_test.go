package netsim

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/des"
	"repro/internal/obs"
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
func runScenario(seed uint64, mk func(*des.Engine, *Topology) transferer) diffResult {
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
	net := mk(e, topo)

	var res diffResult
	var transfer func(chain int)
	transfer = func(chain int) {
		a, b := src.Intn(len(nodes)), src.Intn(len(nodes)) // a == b: self transfer
		bytes := pick(src, []float64{0, 1000, 4096, 1 << 20}, 1, 1e7)
		chained := chain > 0 && src.Intn(3) == 0
		res.transfer(e, net, nodes[a], nodes[b], bytes, func() {
			if chained {
				transfer(chain - 1)
			}
		})
	}
	for k := 1 + src.Intn(60); k > 0; k-- {
		e.At(pick(src, []float64{0, 0, 0.5, 1, 4}, 0, 8), func() { transfer(2) })
	}
	e.Run()
	res.finish(e, topo)
	return res
}

// transfer issues one transfer on net and records its start, its end
// and its place in the completion order; then runs once the end is
// recorded.
func (res *diffResult) transfer(e *des.Engine, net transferer, a, b *Node, bytes float64, then func()) {
	i := len(res.start)
	res.start = append(res.start, math.Float64bits(e.Now()))
	res.end = append(res.end, neverFinished)
	net.Transfer(a, b, bytes, func() {
		res.end[i] = math.Float64bits(e.Now())
		res.order = append(res.order, i)
		// Whatever done schedules for this instant must keep its
		// place against completions that are also due now.
		e.Schedule(0, func() { res.order = append(res.order, -1-i) })
		then()
	})
}

// finish records what the run left: every link's bytes carried, the
// executed-event count and the final clock.
func (res *diffResult) finish(e *des.Engine, topo *Topology) {
	for _, l := range topo.Links() {
		res.carried = append(res.carried, math.Float64bits(l.BytesCarried()))
	}
	res.executed = e.Stats().Executed
	res.now = math.Float64bits(e.Now())
}

// differs describes the first way got differs from want, "" if none.
func (got diffResult) differs(want diffResult) string {
	if len(got.start) != len(want.start) || len(got.order) != len(want.order) || len(got.carried) != len(want.carried) {
		return fmt.Sprintf("%d transfers, %d completions, %d links; reference %d, %d, %d",
			len(got.start), len(got.order), len(got.carried), len(want.start), len(want.order), len(want.carried))
	}
	for i := range want.start {
		if got.start[i] != want.start[i] || got.end[i] != want.end[i] {
			return fmt.Sprintf("transfer %d: start/end %v/%v, reference %v/%v", i,
				math.Float64frombits(got.start[i]), math.Float64frombits(got.end[i]),
				math.Float64frombits(want.start[i]), math.Float64frombits(want.end[i]))
		}
	}
	for i := range want.order {
		if got.order[i] != want.order[i] {
			return fmt.Sprintf("completion %d is %d, reference %d", i, got.order[i], want.order[i])
		}
	}
	for i := range want.carried {
		if got.carried[i] != want.carried[i] {
			return fmt.Sprintf("link %d: carried %v, reference %v", i,
				math.Float64frombits(got.carried[i]), math.Float64frombits(want.carried[i]))
		}
	}
	if got.executed != want.executed || got.now != want.now {
		return fmt.Sprintf("executed %d at %v, reference %d at %v", got.executed,
			math.Float64frombits(got.now), want.executed, math.Float64frombits(want.now))
	}
	return ""
}

// network and reference are the two fabrics a differential run
// compares.
func network(e *des.Engine, topo *Topology) transferer { return NewNetwork(e, topo) }

func reference(e *des.Engine, topo *Topology) transferer { return &refNetwork{e: e, topo: topo} }

// studyTopology is the T0/T1 study's shape: a T0 uplink of the given
// capacity into a WAN hub that fans out to four T1s over far wider
// links.
func studyTopology(uplink float64) (topo *Topology, t0 *Node, t1s []*Node) {
	topo = NewTopology()
	t0, wan := topo.AddNode("T0"), topo.AddNode("WAN")
	topo.Connect(t0, wan, uplink, 0.05)
	for i := 0; i < 4; i++ {
		t1 := topo.AddNode("T1")
		topo.Connect(wan, t1, 100e9/8, 0.01)
		t1s = append(t1s, t1)
	}
	return topo, t0, t1s
}

// studyTransfers loads net the way the study's saturated points do:
// most/5 to most transfers (200 to 1 000 at the study's size,
// studyMost) from T0 to the T1s, nearly all concurrent on
// the uplink, of a few round sizes started at a few round instants, so
// that equal rates and equal completion instants (ties) are the rule.
// About one in eight runs against the grain, T1 to T0 or T1 to T1, and
// one in four finishing transfers starts another, so that fills with
// more than one bottleneck are mixed in.
func studyTransfers(src *rng.Source, e *des.Engine, net transferer, res *diffResult, t0 *Node, t1s []*Node, most int) {
	var transfer func(chain int)
	transfer = func(chain int) {
		a, b := t0, t1s[src.Intn(len(t1s))]
		if src.Intn(8) == 0 {
			a = t1s[src.Intn(len(t1s))] // b == a: a self transfer
			if src.Intn(2) == 0 {
				b = t0
			}
		}
		bytes := pick(src, []float64{2e9, 2e9, 1e9, 1 << 30}, 1e8, 4e9)
		chained := chain > 0 && src.Intn(4) == 0
		res.transfer(e, net, a, b, bytes, func() {
			if chained {
				transfer(chain - 1)
			}
		})
	}
	for k := most/5 + src.Intn(most-most/5+1); k > 0; k-- {
		e.At(pick(src, []float64{0, 0, 10, 20, 60}, 0, 100), func() { transfer(2) })
	}
}

// studyMost is the most transfers a study-sized scenario starts.
const studyMost = 1000

// runStudyScenario runs studyTransfers over studyTopology, with an
// uplink of one of the study's capacities, on the fabric mk returns.
func runStudyScenario(seed uint64, most int, mk func(*des.Engine, *Topology) transferer) diffResult {
	src := rng.New(seed)
	e := des.NewEngine()
	gbps := []float64{0.622, 1.25, 2.5, 10}[src.Intn(4)]
	topo, t0, t1s := studyTopology(gbps * 1e9 / 8)
	var res diffResult
	studyTransfers(src, e, mk(e, topo), &res, t0, t1s, most)
	e.Run()
	res.finish(e, topo)
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
		got, want := runScenario(seed, network), runScenario(seed, reference)
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

// TestStudyShapeAgainstPerFlowTimers is the differential test on the
// T0/T1 study's shape, where one uplink carries hundreds of flows and
// most fills settle every flow at one rate.
func TestStudyShapeAgainstPerFlowTimers(t *testing.T) {
	for seed := uint64(1); seed <= 4; seed++ {
		got, want := runStudyScenario(seed, studyMost, network), runStudyScenario(seed, studyMost, reference)
		if d := got.differs(want); d != "" {
			t.Fatalf("seed %d: %s", seed, d)
		}
		// The family must reach the study's backlog and its ties.
		if p, ties := want.peakInFlight(), want.ties(); p < 200 || ties == 0 {
			t.Fatalf("seed %d: weak scenario: %d transfers in flight at most, %d back-to-back ties", seed, p, ties)
		}
	}
}

// TestLeastHoldsLeastRemaining pins what lets shareOne skip its scan:
// before every event, a known least indexes a flow holding the least
// remaining bytes of all. It runs the random-topology and study-shape
// scenarios, which switch between the one-rate and the general regime,
// mix sizes and admit flows at one instant, and one made for the case
// they never reach: a flow started before the least one, with more
// bytes, whose instant rounds to the least one's, so that it completes
// first from below it.
func TestLeastHoldsLeastRemaining(t *testing.T) {
	var checked int
	var bad string
	watch := func(e *des.Engine, topo *Topology) transferer {
		n := NewNetwork(e, topo)
		e.SetObserver(des.Observer{Hook: func(obs.Event) {
			if n.least < 0 || bad != "" {
				return
			}
			checked++
			if min := slices.Min(n.rem); n.rem[n.least] != min {
				bad = fmt.Sprintf("at %v: rem[least] = %v of %d flows, least %v", e.Now(), n.rem[n.least], len(n.rem), min)
			}
		}})
		return n
	}
	for seed := uint64(1); seed <= 400; seed++ {
		runScenario(seed, watch)
	}
	for seed := uint64(1); seed <= 4; seed++ {
		runStudyScenario(seed, studyMost, watch)
	}
	e := des.NewEngine()
	topo, nodes := line(2, 3, 0)
	net := watch(e, topo)
	e.At(1<<30, func() { // ulp 2^-22: 1 and 1+1e-9 bytes at 1 B/s end together
		for _, bytes := range []float64{1 + 1e-9, 1, 5} {
			net.Transfer(nodes[0], nodes[1], bytes, func() {})
		}
	})
	e.Run()
	if bad != "" {
		t.Fatal(bad)
	}
	if checked < 10000 {
		t.Fatalf("weak scenarios: %d checks", checked)
	}
}

// FuzzNetworkAgainstReference is the differential test on fuzzed
// seeds, over random topologies (runScenario) or the study's shape
// (runStudyScenario) at a tenth of its size: 20 to 100 transfers
// still tie and share the uplink, and are cheap enough that a 10 s
// fuzz run tries thousands of inputs.
func FuzzNetworkAgainstReference(f *testing.F) {
	for seed := uint64(401); seed <= 403; seed++ { // past the differential test's
		f.Add(seed, false)
	}
	for seed := uint64(5); seed <= 6; seed++ { // past the study-shape test's
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, seed uint64, study bool) {
		run := runScenario
		if study {
			run = func(seed uint64, mk func(*des.Engine, *Topology) transferer) diffResult {
				return runStudyScenario(seed, studyMost/10, mk)
			}
		}
		if d := run(seed, network).differs(run(seed, reference)); d != "" {
			t.Fatalf("seed %d (study shape %v): %s", seed, study, d)
		}
	})
}

// ties counts back-to-back completions at one instant.
func (res diffResult) ties() int {
	n := 0
	for i := 1; i < len(res.order); i++ {
		if a, b := res.order[i-1], res.order[i]; a >= 0 && b >= 0 && res.end[a] == res.end[b] {
			n++
		}
	}
	return n
}

// peakInFlight is the most transfers issued and not yet finished at
// once.
func (res diffResult) peakInFlight() int {
	peak := 0
	for i := range res.start {
		at, n := math.Float64frombits(res.start[i]), 0
		for j := range res.start {
			if math.Float64frombits(res.start[j]) <= at && (res.end[j] == neverFinished || math.Float64frombits(res.end[j]) > at) {
				n++
			}
		}
		peak = max(peak, n)
	}
	return peak
}

// TestNetworksSharingATopologyRunAsAlone: two Networks over one
// Topology keep their fills apart, so each network's transfers start,
// end and complete in the order they do when it runs alone.
func TestNetworksSharingATopologyRunAsAlone(t *testing.T) {
	run := func(seeds ...uint64) []diffResult {
		e := des.NewEngine()
		topo, t0, t1s := studyTopology(2.5e9 / 8)
		res := make([]diffResult, len(seeds))
		for i, seed := range seeds {
			studyTransfers(rng.New(seed), e, NewNetwork(e, topo), &res[i], t0, t1s, studyMost)
		}
		e.Run()
		return res
	}
	both := run(1, 2)
	for i, seed := range []uint64{1, 2} {
		if d := both[i].differs(run(seed)[0]); d != "" {
			t.Fatalf("network %d beside another: %s", i, d)
		}
	}
}

// TestLinkConnectedWhileFlowsAreActive: a node and a chord are
// Connected, and the routes recomputed, while flows are active.
// Transfers issued after it cross links the network has not seen, and
// the results still match the reference bit for bit.
func TestLinkConnectedWhileFlowsAreActive(t *testing.T) {
	run := func(mk func(*des.Engine, *Topology) transferer) diffResult {
		e := des.NewEngine()
		topo, nodes := line(3, 1000, 0)
		net := mk(e, topo)
		var res diffResult
		for i := 0; i < 4; i++ {
			res.transfer(e, net, nodes[0], nodes[2], 3000, func() {})
		}
		e.At(1, func() {
			n3 := topo.AddNode("n3")
			topo.Connect(nodes[2], n3, 4000, 0) // links 4, 5
			topo.Connect(nodes[0], nodes[2], 500, 0)
			topo.ComputeRoutes()
			res.transfer(e, net, nodes[0], n3, 3000, func() {})
			res.transfer(e, net, nodes[0], nodes[2], 3000, func() {})
		})
		e.Run()
		res.finish(e, topo)
		return res
	}
	got, want := run(network), run(reference)
	if d := got.differs(want); d != "" {
		t.Fatal(d)
	}
	for _, id := range []int{4, 6} { // n2→n3 and the chord n0→n2
		if math.Float64frombits(got.carried[id]) == 0 {
			t.Fatalf("new link %d carried nothing", id)
		}
	}
	for i, end := range got.end {
		if end == neverFinished {
			t.Fatalf("transfer %d never finished", i)
		}
	}
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

// TestInstantsThatRoundTogetherTieInStartOrder: two flows at 1 B/s
// whose remaining/rate differ but whose completion instants, as the
// engine computes them (now + remaining/rate), round to one value.
// That is a tie, and the earlier-started flow completes first even
// though its remaining is the larger; the reference agrees. The flows
// run on separate links, or share one bottleneck at 2 B/s, where every
// flow has one rate and the least remaining is the later-started
// flow's.
func TestInstantsThatRoundTogetherTieInStartOrder(t *testing.T) {
	const t0 = 1 << 30 // ulp(t0) is 2^-22, far above the 1e-9 the flows differ by
	for _, shared := range []bool{false, true} {
		run := func(mk func(*des.Engine, *Topology) transferer) (order []int, ends []float64) {
			e := des.NewEngine()
			topo := NewTopology()
			a, b, c, d := topo.AddNode("a"), topo.AddNode("b"), topo.AddNode("c"), topo.AddNode("d")
			if shared {
				topo.Connect(a, b, 2, 0)
				c, d = a, b
			} else {
				topo.Connect(a, b, 1, 0)
				topo.Connect(c, d, 1, 0)
			}
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
		order, ends := run(network)
		refOrder, refEnds := run(reference)
		for i, want := range []int{0, 1} {
			if order[i] != want || refOrder[i] != want || ends[i] != t0+1 || refEnds[i] != t0+1 {
				t.Fatalf("shared %v: order %v at %v, reference %v at %v; want [0 1], both at %v",
					shared, order, ends, refOrder, refEnds, float64(t0+1))
			}
		}
	}
}

// accessorRun is one fabric under TestRateAndRemainingAgainstPerFlowTimers:
// issue starts a transfer and returns a probe of the flow's rate and
// remaining bytes; completed runs after every completion's probes.
type accessorRun struct {
	issue     func(src, dst *Node, bytes float64, done func()) (probe func() (rate, remaining float64))
	completed func()
}

// runAccessorScenario saturates a T0 uplink (1 000 B/s, 0.5 s latency)
// with transfers to a wide T1 link, so that every fill is one-rate,
// until a transfer to T2, whose own 100 B/s link is its bottleneck,
// joins the uplink at 1.5 s; the fills then settle two rates until it
// drains. It returns every flow's rate and remaining bytes, as bits, at
// every completion and at the end; some flows are finished by then,
// some are in their latency phase (issued in a completion callback)
// and one carries no bytes.
func runAccessorScenario(mk func(*des.Engine, *Topology) accessorRun) []uint64 {
	e := des.NewEngine()
	topo := NewTopology()
	t0, wan, t1, t2 := topo.AddNode("T0"), topo.AddNode("WAN"), topo.AddNode("T1"), topo.AddNode("T2")
	topo.Connect(t0, wan, 1000, 0.5)
	topo.Connect(wan, t1, 1e6, 0)
	topo.Connect(wan, t2, 100, 0)
	run := mk(e, topo)
	var probes []func() (float64, float64)
	var got []uint64
	record := func() {
		for _, p := range probes {
			r, rem := p()
			got = append(got, math.Float64bits(r), math.Float64bits(rem))
		}
	}
	var transfer func(dst *Node, bytes float64, chain bool)
	transfer = func(dst *Node, bytes float64, chain bool) {
		probes = append(probes, run.issue(t0, dst, bytes, func() {
			if chain {
				transfer(t1, 700, false)
			}
			record()
			run.completed()
		}))
	}
	e.At(0, func() {
		transfer(t1, 100, true)
		for i := 1; i <= 6; i++ {
			transfer(t1, float64(1000*i), i%2 == 0)
		}
		transfer(t1, 0, false)
	})
	e.At(1, func() { transfer(t2, 1000, true) })
	e.Run()
	record()
	return got
}

// TestRateAndRemainingAgainstPerFlowTimers: every flow's Rate and
// Remaining equal, bit for bit, the rate and remaining bytes the
// per-flow-timer reference keeps per flow, at every completion, as the
// network leaves the one-rate regime and comes back to it.
func TestRateAndRemainingAgainstPerFlowTimers(t *testing.T) {
	var regimes []bool // Network.one at each completion
	got := runAccessorScenario(func(e *des.Engine, topo *Topology) accessorRun {
		n := NewNetwork(e, topo)
		return accessorRun{
			issue: func(src, dst *Node, bytes float64, done func()) func() (float64, float64) {
				// A finished flow's record is reused: its probe reads what
				// the flow reported as it finished.
				var f *Flow
				var final *[2]float64
				f = n.transfer(src, dst, bytes, func() {
					final = &[2]float64{f.Rate(), f.Remaining()}
					done()
				}, des.Op{}, nil)
				return func() (float64, float64) {
					if final != nil {
						return final[0], final[1]
					}
					return f.Rate(), f.Remaining()
				}
			},
			completed: func() { regimes = append(regimes, n.one) },
		}
	})
	want := runAccessorScenario(func(e *des.Engine, topo *Topology) accessorRun {
		n := &refNetwork{e: e, topo: topo}
		return accessorRun{
			issue: func(src, dst *Node, bytes float64, done func()) func() (float64, float64) {
				f := n.transfer(src, dst, bytes, done)
				return func() (float64, float64) { return f.rate, f.remaining }
			},
			completed: func() {},
		}
	})
	if len(got) != len(want) {
		t.Fatalf("%d probes, reference %d", len(got)/2, len(want)/2)
	}
	for i := range want {
		if got[i] != want[i] {
			what := [2]string{"rate", "remaining"}[i%2]
			t.Fatalf("probe %d: %s %v, reference %v", i/2, what,
				math.Float64frombits(got[i]), math.Float64frombits(want[i]))
		}
	}
	// The run must leave the one-rate regime and come back to it.
	left, back := false, false
	for i := 1; i < len(regimes); i++ {
		left = left || regimes[i-1] && !regimes[i]
		back = back || left && !regimes[i-1] && regimes[i]
	}
	if !regimes[0] || !left || !back {
		t.Fatalf("one-rate regime at each completion %v: want it left and entered again", regimes)
	}
}
