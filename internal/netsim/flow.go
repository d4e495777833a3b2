package netsim

import (
	"fmt"
	"math"

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
// (rebalance), which costs arithmetic over the active flows' routes,
// one cancel, one schedule and no allocation. Flows due at the same
// instant complete in start order; that tie-break lives in rebalance's
// scan, not in the event list.
type Network struct {
	e    *des.Engine
	topo *Topology

	// Efficiency models TCP's inability to saturate a path (slow
	// start, ack clocking): achievable flow rate is capacity times
	// this factor. 1.0 means ideal fluid behavior.
	Efficiency float64

	flows      []*Flow // active flows, in start order (determinism)
	lastUpdate float64

	next     *Flow     // flow the pending completion timer is for
	timer    des.Timer // the one pending completion, if any
	complete func()    // n.completeNext, bound once so arming allocates nothing
	links    []*Link   // rebalance scratch: links under active flows

	// accounting
	started   uint64
	completed uint64
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
	fixed     bool // rebalance scratch: rate settled in this pass
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
	n.e.ScheduleNamed("net:flowstart", latency, func() {
		n.advance()
		n.flows = append(n.flows, f)
		n.rebalance()
	})
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

// rebalance recomputes max-min fair rates and re-arms the completion
// timer for the flow that now finishes first. Must be called with byte
// accounting already advanced to Now.
func (n *Network) rebalance() {
	// Progressive filling. Residual capacity and unfixed-flow count
	// live on the links, valid when the link's epoch is this pass's
	// (the counter is the topology's, as networks may share one).
	// Flows are "fixed" once their bottleneck link saturates.
	n.topo.fillEpoch++
	epoch := n.topo.fillEpoch
	n.links = n.links[:0]
	for _, f := range n.flows {
		f.fixed = false
		f.rate = 0
		for _, l := range f.route {
			if l.fillEpoch != epoch {
				l.fillEpoch = epoch
				l.residual = l.usable() * n.Efficiency
				l.unfixed = 0
				n.links = append(n.links, l)
			}
			l.unfixed++
		}
	}
	for unfixed := len(n.flows); unfixed > 0; {
		// Find the bottleneck link: minimal residual/count over links
		// with unfixed flows, lowest ID on equal shares.
		var bottleneck *Link
		best := math.Inf(1)
		for _, l := range n.links {
			if l.unfixed == 0 {
				continue
			}
			share := l.residual / float64(l.unfixed)
			if share < best || (share == best && (bottleneck == nil || l.ID < bottleneck.ID)) {
				best = share
				bottleneck = l
			}
		}
		if bottleneck == nil {
			break
		}
		if bottleneck.unfixed == unfixed {
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
				l.residual -= best
				if l.residual < 0 {
					l.residual = 0
				}
				l.unfixed--
			}
		}
	}
	// Arm the one timer for the earliest completion instant, computed
	// as the engine will (now + remaining/rate) so that flows whose
	// instants round together tie; strict < scanning in start order
	// lets the earliest-started of them complete first.
	n.timer.Cancel()
	n.next = nil
	now, bestAt := n.e.Now(), 0.0
	for _, f := range n.flows {
		if f.rate <= 0 {
			continue // stalled: no capacity on some link
		}
		if at := now + f.remaining/f.rate; n.next == nil || at < bestAt {
			n.next, bestAt = f, at
		}
	}
	if f := n.next; f != nil {
		n.timer = n.e.ScheduleNamed("net:flowend", f.remaining/f.rate, n.complete)
	}
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

// removeFlow deletes f from the active list, keeping start order.
func (n *Network) removeFlow(f *Flow) {
	for i, g := range n.flows {
		if g == f {
			n.flows = append(n.flows[:i], n.flows[i+1:]...)
			return
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
