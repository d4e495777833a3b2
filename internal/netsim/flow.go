package netsim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/des"
)

// Network is the flow-level fabric: every active transfer is a fluid
// flow, and link capacity is divided among competing flows by
// progressive (max-min) fair sharing, recomputed whenever a flow
// starts or finishes. A transfer costs O(changes) events rather than
// O(packets), which is what lets the framework simulate wide-area Data
// Grid traffic at scale: it executes two events (start, completion) and
// schedules at most three, however many flows share its links.
//
// The network keeps one event-list entry for all its active flows: the
// completion of whichever flow finishes first at the current rates.
// Every start or finish recomputes the rates and re-arms that one timer
// (rebalance), which costs arithmetic over the links under active flows
// and the flows themselves, one des.Engine.RescheduleOp and no
// allocation. An admission that only pushes the next completion later
// leaves the timer's record where it sits, so a busy link's arrivals
// put no dead records in the event list.
// Flows due at the same instant complete in start order; that
// tie-break lives in rebalance's scan, not in the event list.
//
// When one bottleneck carries every active flow (the T0/T1 study's
// shared uplink), every flow has one rate: the network keeps it once,
// drains the flows' remaining bytes in one pass over rem, and charges
// each link its flows' identical moves in closed form (addN).
type Network struct {
	e    *des.Engine
	k    *kind
	topo *Topology

	flows      []*Flow   // active flows, in start order (determinism)
	rem        []float64 // rem[i] is flows[i]'s remaining bytes, its only copy
	lastUpdate float64

	// one reports that the last fill gave every active flow the one
	// rate in rate, which is then the only copy of their rates.
	one  bool
	rate float64

	// least indexes a flow with the least remaining bytes, -1 when
	// unknown. A one-rate charge maps every x in rem to max(x−moved, 0)
	// with one moved; rounded subtraction and the clamp are monotone,
	// so no charge reverses two flows' order and the least stays least.
	// admit takes a newcomer with strictly fewer bytes, removeFlow
	// shifts or clears it, and a fill that is not one-rate clears it.
	least int

	// fill[l.ID] is link l's share of the active flows, kept by admit
	// and removeFlow; links lists the links with any, in no order.
	fill  []linkFill
	links []*Link

	next  int       // index in flows of the flow the pending completion is for
	timer des.Timer // the one pending completion, if any

	// accounting
	started   uint64
	completed uint64
}

// linkFill is one link's state in a network's progressive fill.
type linkFill struct {
	active   int     // active flows crossing the link
	unfixed  int     // of those, flows this fill has not settled
	residual float64 // capacity this fill has not given to a settled flow
}

// Flow is one fluid transfer, a record in its engine's flow table from
// Transfer or SendOp until it finishes.
type Flow struct {
	Src, Dst *Node
	Bytes    float64
	rate     float64 // set by fillAll; in the one-rate regime, Network.rate
	route    []*Link
	done     func() // Transfer's callback, run in the completing event
	then     des.Op // SendOp's continuation, run one event later
	arg      []byte
	self     []byte // the flow's op argument
	net      *Network
	finished bool
	fixed    bool // rebalance scratch: rate settled in this fill
}

// kind is the package's state on one engine: the ops every network on
// it schedules its flows' events with, and the flows' free list.
type kind struct {
	flows             des.Table[Flow]
	start, zero, ends des.Op
}

func newKind(e *des.Engine) *kind {
	k := &kind{}
	k.start = e.RegisterOp("net:flowstart", func(self []byte) {
		f := k.flows.At(self)
		f.net.admit(f)
	})
	k.zero = e.RegisterOp("net:zero", func(self []byte) {
		f := k.flows.At(self)
		f.net.finish(f)
	})
	// The completion timer names the flow it is for.
	k.ends = e.RegisterOp("net:flowend", func(self []byte) { k.flows.At(self).net.completeNext() })
	return k
}

// Rate returns the flow's current allocated rate in bytes/second. For
// an active flow it costs a search of the network's active flows.
func (f *Flow) Rate() float64 {
	if f.net.one && slices.Index(f.net.flows, f) >= 0 {
		return f.net.rate
	}
	return f.rate
}

// Remaining returns the bytes not yet delivered (as of the last
// recompute; exact at event boundaries). For an active flow it costs a
// search of the network's active flows.
func (f *Flow) Remaining() float64 {
	if i := slices.Index(f.net.flows, f); i >= 0 {
		return f.net.rem[i]
	}
	if f.finished {
		return 0
	}
	return f.Bytes
}

// NewNetwork creates a flow-level fabric over the topology, driven by
// engine e.
func NewNetwork(e *des.Engine, topo *Topology) *Network {
	return &Network{e: e, k: des.PerEngine(e, newKind), topo: topo, least: -1}
}

// Topo implements Fabric.
func (n *Network) Topo() *Topology { return n.topo }

// ActiveFlows returns the number of in-progress transfers.
func (n *Network) ActiveFlows() int { return len(n.flows) }

// Completed returns the cumulative number of finished transfers.
func (n *Network) Completed() uint64 { return n.completed }

// Transfer implements Fabric. The transfer experiences the route's
// propagation latency once, then drains at the max-min fair rate.
// Zero-byte transfers complete after the latency alone.
func (n *Network) Transfer(src, dst *Node, bytes float64, done func()) {
	n.transfer(src, dst, bytes, done, des.Op{}, nil)
}

// SendOp implements Fabric.
func (n *Network) SendOp(src, dst *Node, bytes float64, op des.Op, arg []byte) {
	n.transfer(src, dst, bytes, nil, op, arg)
}

// transfer is Transfer and SendOp, returning the flow.
func (n *Network) transfer(src, dst *Node, bytes float64, done func(), then des.Op, arg []byte) *Flow {
	if bytes < 0 || math.IsNaN(bytes) || math.IsInf(bytes, 0) {
		panic(fmt.Sprintf("netsim: Transfer of %v bytes", bytes))
	}
	route := n.topo.Route(src, dst)
	if route == nil {
		panic(fmt.Sprintf("netsim: no route %s -> %s", src.Name, dst.Name))
	}
	latency := 0.0
	for _, l := range route {
		latency += l.Latency
	}
	n.started++
	f, self := n.k.flows.Get()
	*f = Flow{
		Src: src, Dst: dst,
		Bytes: bytes,
		route: route,
		done:  done, then: then, arg: arg, self: self, net: n,
	}
	if bytes == 0 || len(route) == 0 {
		n.e.ScheduleOp(latency, n.k.zero, self)
		return f
	}
	n.e.ScheduleOp(latency, n.k.start, self)
	return f
}

// Send implements Fabric.
func (n *Network) Send(p *des.Process, src, dst *Node, bytes float64) {
	send(p, n, src, dst, bytes)
}

// advance charges every active flow for the bytes moved since the last
// recompute point, and every link for the bytes its flows moved, in the
// order and rounding of one add per flow and link crossed.
func (n *Network) advance() {
	now := n.e.Now()
	dt := now - n.lastUpdate
	n.lastUpdate = now
	if dt <= 0 {
		return
	}
	rem := n.rem
	if n.one {
		moved := n.rate * dt
		for i, x := range rem {
			if x -= moved; x < 0 {
				x = 0
			}
			rem[i] = x
		}
		fill := n.fill
		for _, l := range n.links {
			l.bytesCarried = addN(l.bytesCarried, moved, fill[l.ID].active)
		}
		return
	}
	for i, f := range n.flows {
		moved := f.rate * dt
		if rem[i] -= moved; rem[i] < 0 {
			rem[i] = 0
		}
		for _, l := range f.route {
			l.bytesCarried += moved
		}
	}
}

// addN returns b after k successive b += m, bit for bit, in steps
// proportional to the binades the sum crosses rather than to k: while
// the sum stays in one binade, every add rounds at that binade's ulp,
// so each adds m rounded to a multiple of it, whatever the sum is. The
// closed form is addBinades'; addN itself is small enough to inline,
// so that the short counts, which take the plain loop, pay no call.
func addN(b, m float64, k int) float64 {
	if k >= shortAdds {
		b, k = addBinades(b, m, k)
	}
	for range k {
		b += m
	}
	return b
}

// shortAdds is the count of adds below which the plain loop is as
// fast as the closed form.
const shortAdds = 8

// addBinades makes addN's adds until fewer than shortAdds are left: as
// many as sameBinade vouches for in one multiply-add, else one hardware
// add. It returns the sum and the adds left.
func addBinades(b, m float64, k int) (float64, int) {
	for k >= shortAdds {
		s, d := sameBinade(b, m, k)
		if s == 0 {
			s, d = 1, m
		}
		b += float64(s) * d
		k -= s
	}
	return b, k
}

// sameBinade returns how many, s ≤ k, of k successive b += m each add
// exactly d, the multiple of b's ulp nearest m. It returns 0 when it
// cannot vouch for the first add: m is an exact half-ulp tie (the
// rounding then depends on b's parity), m ≥ b, an operand is not
// positive and finite, or b is so small that its ulp is subnormal.
func sameBinade(b, m float64, k int) (s int, d float64) {
	if !(0 < m && m < b && b <= math.MaxFloat64) {
		return 0, 0
	}
	const frac = 1<<52 - 1
	bb, mb := math.Float64bits(b), math.Float64bits(m)
	be, me := bb>>52, mb>>52 // biased exponents; m < b, so me ≤ be
	if be <= 52 {
		return 0, 0
	}
	// b is B·u with u = 2^(be-1075) and 2^52 ≤ B < 2^53; every double
	// in [b, 2^53·u] is a multiple of u, so an add whose exact sum
	// rounds in there rounds to a multiple of u.
	B, M := bb&frac|1<<52, mb&frac
	if me > 0 {
		M |= 1 << 52
	} else {
		me = 1 // subnormal m: its unit is 2^-1074 too
	}
	// m/u = q ± a fraction below ½; q is m rounded to a multiple of u.
	var q uint64
	switch shift := be - me; {
	case shift == 0:
		q = M
	case shift <= 53:
		half := uint64(1) << (shift - 1)
		r := M & (2*half - 1)
		if r == half {
			return 0, 0
		}
		q = M >> shift
		if r > half {
			q++
		}
	} // shift > 53: m < u/2, q = 0
	if q == 0 {
		return k, 0 // each add rounds back to b
	}
	// The (j+1)-th add lands on (B + (j+1)·q)·u when that is at most
	// 2^53·u: its exact sum lies less than u/2 from it, and no other
	// double is as close, as the spacing is u below 2^53·u and 2u above.
	n := uint64(1)<<53 - B
	if hi, lo := bits.Mul64(uint64(k), q); hi == 0 && lo <= n {
		s = k
	} else {
		s = int(n / q)
	}
	return s, float64(q) * math.Float64frombits((be-52)<<52)
}

// admit is Transfer's start event: it charges the active flows up to
// now, adds f to them, counts it on its links and rebalances.
func (n *Network) admit(f *Flow) {
	n.advance()
	if n.least >= 0 && f.Bytes < n.rem[n.least] {
		n.least = len(n.flows)
	}
	n.flows = append(n.flows, f)
	n.rem = append(n.rem, f.Bytes)
	for _, l := range f.route {
		if l.ID >= len(n.fill) { // first admission, or the topology has grown
			k := len(n.topo.links)
			n.fill = append(n.fill, make([]linkFill, k-len(n.fill))...)
			n.links = slices.Grow(n.links, k-len(n.links))
		}
		if n.fill[l.ID].active == 0 {
			n.links = append(n.links, l)
		}
		n.fill[l.ID].active++
	}
	n.rebalance()
}

// rebalance recomputes max-min fair rates and re-arms the completion
// timer for the flow that now finishes first. Must be called with byte
// accounting already advanced to Now.
func (n *Network) rebalance() {
	// Progressive filling, from the per-link flow counts admit and
	// removeFlow keep. Flows are "fixed" once their bottleneck link
	// saturates.
	for _, l := range n.links {
		c := &n.fill[l.ID]
		c.residual = l.usable()
		c.unfixed = c.active
	}
	if b, share := n.bottleneck(); b != nil && n.fill[b.ID].unfixed == len(n.flows) {
		n.one, n.rate = true, share
		n.next = n.shareOne()
	} else {
		n.one, n.least = false, -1
		n.next = n.fillAll()
	}
	if i := n.next; i >= 0 {
		r := n.rate
		if !n.one {
			r = n.flows[i].rate
		}
		n.timer = n.e.RescheduleOp(n.timer, n.rem[i]/r, n.k.ends, n.flows[i].self)
	} else {
		n.timer.Cancel()
	}
}

// bottleneck returns the link whose fair share, residual over unfixed
// flows, is least (lowest ID on equal shares) and that share; nil when
// no link has an unfixed flow.
func (n *Network) bottleneck() (*Link, float64) {
	var bottleneck *Link
	best := math.Inf(1)
	for _, l := range n.links {
		c := &n.fill[l.ID]
		if c.unfixed == 0 {
			continue
		}
		share := c.residual / float64(c.unfixed)
		if share < best || (share == best && (bottleneck == nil || l.ID < bottleneck.ID)) {
			best = share
			bottleneck = l
		}
	}
	return bottleneck, best
}

// shareOne is the fill when one bottleneck carries every flow: each
// gets rate n.rate. It returns the index of the flow that finishes
// first, -1 when the rate is not positive (every flow stalls).
// Completion instants now+remaining/r never decrease as remaining
// grows, so the earliest is the least remaining's: n.least's, scanned
// for only when unknown. The first flow in start order whose instant
// rounds to it is the one fillAll's scan would pick.
func (n *Network) shareOne() int {
	r := n.rate
	if r <= 0 {
		return -1
	}
	rem := n.rem
	if n.least < 0 {
		n.least = 0
		for i, x := range rem {
			if x < rem[n.least] {
				n.least = i
			}
		}
	}
	now := n.e.Now()
	at := now + rem[n.least]/r
	i := 0
	for now+rem[i]/r != at {
		i++
	}
	return i
}

// fillAll is the general progressive fill: the flows crossing the link
// with the least fair share are fixed at that share and taken off their
// other links, until every flow is fixed. It returns the index of the
// flow that finishes first, -1 when every flow stalls.
func (n *Network) fillAll() int {
	for _, f := range n.flows {
		f.fixed = false
		f.rate = 0
	}
	for unfixed := len(n.flows); unfixed > 0; {
		bottleneck, best := n.bottleneck()
		if bottleneck == nil {
			break
		}
		if n.fill[bottleneck.ID].unfixed == unfixed {
			// Every flow still unfixed crosses the bottleneck: this pass
			// fixes them all and its residual updates are never read,
			// so set the rates and end the fill.
			for _, f := range n.flows {
				if !f.fixed {
					f.rate = best
				}
			}
			break
		}
		// Fix every unfixed flow crossing the bottleneck at the share.
		for _, f := range n.flows {
			if f.fixed || !f.crosses(bottleneck) {
				continue
			}
			f.rate = best
			f.fixed = true
			unfixed--
			for _, l := range f.route {
				c := &n.fill[l.ID]
				c.residual -= best
				if c.residual < 0 {
					c.residual = 0
				}
				c.unfixed--
			}
		}
	}
	// The earliest completion instant, computed as the engine will (now
	// + remaining/rate) so that flows whose instants round together tie;
	// strict < scanning in start order lets the earliest-started of them
	// complete first.
	next := -1
	now, bestAt := n.e.Now(), 0.0
	for i, f := range n.flows {
		if f.rate <= 0 {
			continue // stalled: no capacity on some link
		}
		if at := now + n.rem[i]/f.rate; next < 0 || at < bestAt {
			next, bestAt = i, at
		}
	}
	return next
}

func (f *Flow) crosses(l *Link) bool {
	for _, r := range f.route {
		if r == l {
			return true
		}
	}
	return false
}

// completeNext is the completion timer's callback. The timer for the
// remaining flows is re-armed (inside rebalance) before finish runs the
// user's done callback, so whatever done schedules at this same instant
// runs after a completion that is also due now.
func (n *Network) completeNext() {
	f := n.flows[n.next]
	n.advance()
	if n.one {
		f.rate = n.rate // what Rate reports once f has finished
	}
	n.removeFlow(n.next)
	n.rebalance()
	n.finish(f)
}

// removeFlow deletes the i-th active flow, keeping start order, and
// uncounts it on its links.
func (n *Network) removeFlow(i int) {
	f := n.flows[i]
	if i == n.least {
		n.least = -1
	} else if i < n.least {
		n.least--
	}
	n.flows = append(n.flows[:i], n.flows[i+1:]...)
	n.rem = append(n.rem[:i], n.rem[i+1:]...)
	for _, l := range f.route {
		n.fill[l.ID].active--
		if n.fill[l.ID].active > 0 {
			continue
		}
		for i, m := range n.links {
			if m == l {
				last := len(n.links) - 1
				n.links[i] = n.links[last]
				n.links = n.links[:last]
				break
			}
		}
	}
}

// finish records completion, continues the transfer's job — Transfer's
// done at once, SendOp's op one event later — last, as it may start
// further transfers, and then frees the flow.
func (n *Network) finish(f *Flow) {
	f.finished = true
	n.completed++
	switch {
	case f.then != des.Op{}:
		n.e.ScheduleOp(0, f.then, f.arg)
	case f.done != nil:
		f.done()
	}
	n.k.flows.Put(f.self)
}

var _ Fabric = (*Network)(nil)
