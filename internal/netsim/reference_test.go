package netsim

import (
	"math"

	"repro/internal/des"
)

// refNetwork is the flow-level fabric as it was before the
// one-timer-per-network rewrite, kept as the reference the differential
// test compares Network against: every flow owns a completion timer,
// and every start or finish cancels and reschedules all of them, in
// start order. It costs O(flows) event-list entries per change, which
// is why it is here and not in flow.go; its simulated results define
// what Network must reproduce bit for bit.
type refNetwork struct {
	e          *des.Engine
	topo       *Topology
	flows      []*refFlow
	lastUpdate float64
}

type refFlow struct {
	remaining float64
	rate      float64
	route     []*Link
	done      func()
	timer     des.Timer
}

func (n *refNetwork) Transfer(src, dst *Node, bytes float64, done func()) {
	n.transfer(src, dst, bytes, done)
}

// transfer is Transfer, returning the flow.
func (n *refNetwork) transfer(src, dst *Node, bytes float64, done func()) *refFlow {
	route := n.topo.Route(src, dst)
	latency := 0.0
	for _, l := range route {
		latency += l.Latency
	}
	f := &refFlow{remaining: bytes, route: route, done: done}
	if bytes == 0 || len(route) == 0 {
		n.e.Schedule(latency, func() { n.finish(f) })
		return f
	}
	n.e.Schedule(latency, func() {
		n.advance()
		n.flows = append(n.flows, f)
		n.rebalance()
	})
	return f
}

func (n *refNetwork) advance() {
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

func (n *refNetwork) rebalance() {
	residual := make(map[*Link]float64)
	count := make(map[*Link]int)
	for _, f := range n.flows {
		for _, l := range f.route {
			if _, ok := residual[l]; !ok {
				residual[l] = l.usable()
			}
			count[l]++
		}
	}
	unfixed := make(map[*refFlow]struct{}, len(n.flows))
	for _, f := range n.flows {
		unfixed[f] = struct{}{}
		f.rate = 0
	}
	for len(unfixed) > 0 {
		var bottleneck *Link
		best := math.Inf(1)
		for l, c := range count {
			if c == 0 {
				continue
			}
			share := residual[l] / float64(c)
			if share < best || (share == best && (bottleneck == nil || l.ID < bottleneck.ID)) {
				best = share
				bottleneck = l
			}
		}
		if bottleneck == nil {
			break
		}
		for f := range unfixed {
			crosses := false
			for _, l := range f.route {
				if l == bottleneck {
					crosses = true
					break
				}
			}
			if !crosses {
				continue
			}
			f.rate = best
			delete(unfixed, f)
			for _, l := range f.route {
				residual[l] -= best
				if residual[l] < 0 {
					residual[l] = 0
				}
				count[l]--
			}
		}
	}
	for _, f := range n.flows {
		f.timer.Cancel()
		f.timer = des.Timer{}
		if f.rate <= 0 {
			continue
		}
		f := f
		f.timer = n.e.Schedule(f.remaining/f.rate, func() {
			n.advance()
			f.remaining = 0
			for i, g := range n.flows {
				if g == f {
					n.flows = append(n.flows[:i], n.flows[i+1:]...)
					break
				}
			}
			n.rebalance()
			n.finish(f)
		})
	}
}

func (n *refNetwork) finish(f *refFlow) {
	if f.done != nil {
		f.done()
	}
}
