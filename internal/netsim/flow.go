package netsim

import (
	"fmt"
	"math"
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
// and the flows themselves, one cancel, one schedule and no allocation.
// Flows due at the same instant complete in start order; that
// tie-break lives in rebalance's scan, not in the event list.
type Network struct {
	e    *des.Engine
	topo *Topology

	// Efficiency models TCP's inability to saturate a path (slow
	// start, ack clocking): achievable flow rate is capacity times
	// this factor. 1.0 means ideal fluid behavior.
	Efficiency float64

	flows      []*Flow // active flows, in start order (determinism)
	lastUpdate float64

	// fill[l.ID] is link l's share of the active flows, kept by admit
	// and removeFlow; links lists the links with any, in no order.
	fill  []linkFill
	links []*Link

	next     *Flow     // flow the pending completion timer is for
	timer    des.Timer // the one pending completion, if any
	complete func()    // n.completeNext, bound once so arming allocates nothing

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

// Flow is one active fluid transfer.
type Flow struct {
	Src, Dst  *Node
	Bytes     float64
	remaining float64
	rate      float64
	route     []*Link
	startTime float64
	doneTime  float64
	done      func()
	net       *Network
	finished  bool
	fixed     bool // rebalance scratch: rate settled in this fill
}

// Rate returns the flow's current allocated rate in bytes/second.
func (f *Flow) Rate() float64 { return f.rate }

// Remaining returns the bytes not yet delivered (as of the last
// recompute; exact at event boundaries).
func (f *Flow) Remaining() float64 { return f.remaining }

// Finished reports completion.
func (f *Flow) Finished() bool { return f.finished }

// Start returns the simulation time the transfer was initiated.
func (f *Flow) Start() float64 { return f.startTime }

// End returns the completion time (0 until finished).
func (f *Flow) End() float64 { return f.doneTime }

// NewNetwork creates a flow-level fabric over the topology, driven by
// engine e.
func NewNetwork(e *des.Engine, topo *Topology) *Network {
	n := &Network{e: e, topo: topo, Efficiency: 1.0}
	n.complete = n.completeNext
	return n
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
	f := &Flow{
		Src: src, Dst: dst,
		Bytes: bytes, remaining: bytes,
		route: route, startTime: n.e.Now(),
		done: done, net: n,
	}
	if bytes == 0 || len(route) == 0 {
		n.e.ScheduleNamed("net:zero", latency, func() { n.finish(f) })
		return
	}
	n.e.ScheduleNamed("net:flowstart", latency, func() { n.admit(f) })
}

// Send implements Fabric.
func (n *Network) Send(p *des.Process, src, dst *Node, bytes float64) {
	send(p, n, src, dst, bytes)
}

// SendThen implements Fabric.
func (n *Network) SendThen(src, dst *Node, bytes float64, then func()) {
	n.Transfer(src, dst, bytes, n.e.Hop(then))
}

// advance charges every active flow for the bytes moved since the last
// recompute point.
func (n *Network) advance() {
	now := n.e.Now()
	dt := now - n.lastUpdate
	if dt > 0 {
		for _, f := range n.flows {
			moved := f.rate * dt
			f.remaining -= moved
			if f.remaining < 0 {
				f.remaining = 0
			}
			for _, l := range f.route {
				l.bytesCarried += moved
			}
		}
	}
	n.lastUpdate = now
}

// admit is Transfer's start event: it charges the active flows up to
// now, adds f to them, counts it on its links and rebalances.
func (n *Network) admit(f *Flow) {
	n.advance()
	n.flows = append(n.flows, f)
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
		c.residual = l.usable() * n.Efficiency
		c.unfixed = c.active
	}
	n.timer.Cancel()
	if b, share := n.bottleneck(); b != nil && n.fill[b.ID].unfixed == len(n.flows) {
		n.next = n.shareOne(share)
	} else {
		n.next = n.fillAll()
	}
	if f := n.next; f != nil {
		n.timer = n.e.ScheduleNamed("net:flowend", f.remaining/f.rate, n.complete)
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
// gets rate r. It returns the flow that finishes first, nil when r is
// not positive (every flow stalls). Completion instants now+remaining/r
// never decrease as remaining grows, so the earliest is the least
// remaining's, found by comparison alone; the first flow in start order
// whose instant rounds to it is the one fillAll's scan would pick.
func (n *Network) shareOne(r float64) *Flow {
	least := math.Inf(1)
	for _, f := range n.flows {
		f.rate = r
		if f.remaining < least {
			least = f.remaining
		}
	}
	if r <= 0 {
		return nil
	}
	now := n.e.Now()
	at := now + least/r
	i := 0
	for now+n.flows[i].remaining/r != at {
		i++
	}
	return n.flows[i]
}

// fillAll is the general progressive fill: the flows crossing the link
// with the least fair share are fixed at that share and taken off their
// other links, until every flow is fixed. It returns the flow that
// finishes first.
func (n *Network) fillAll() *Flow {
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
	var next *Flow
	now, bestAt := n.e.Now(), 0.0
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue // stalled: no capacity on some link
		}
		if at := now + f.remaining/f.rate; next == nil || at < bestAt {
			next, bestAt = f, at
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
	f := n.next
	n.advance()
	f.remaining = 0
	n.removeFlow(f)
	n.rebalance()
	n.finish(f)
}

// removeFlow deletes f from the active list, keeping start order, and
// uncounts it on its links.
func (n *Network) removeFlow(f *Flow) {
	for i, g := range n.flows {
		if g == f {
			n.flows = append(n.flows[:i], n.flows[i+1:]...)
			break
		}
	}
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

// finish records completion and runs the user's callback, last, as it
// may start further transfers.
func (n *Network) finish(f *Flow) {
	f.finished = true
	f.doneTime = n.e.Now()
	n.completed++
	if f.done != nil {
		f.done()
	}
}

var _ Fabric = (*Network)(nil)
