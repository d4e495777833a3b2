// Package netsim is the network substrate of the simulation framework.
//
// The taxonomy of the reproduced paper classifies simulators by the
// granularity of their network models: packet-level simulation
// ("model in detail the flow of each packet through the network, a
// time consuming operation that leads to better output results")
// versus flow-level simulation ("model only the flows of packets going
// from one end to another"). This package implements both behind one
// Fabric interface:
//
//   - Network: a flow-level model with progressive max-min fair
//     bandwidth sharing across links (the SimGrid approach), paying a
//     handful of events per transfer;
//   - PacketNet: a store-and-forward packet-level model paying one
//     event per packet per hop.
//
// Topologies are graphs of Nodes joined by full-duplex Links; routing
// is static shortest-path (hop count), precomputed by BFS.
package netsim

import (
	"fmt"
	"math"

	"repro/internal/des"
)

// Node is a network endpoint or router.
type Node struct {
	ID   int
	Name string
}

// Link is one direction of a full-duplex connection between two nodes.
// Connect creates both directions; each direction has independent
// capacity, as in real point-to-point circuits.
type Link struct {
	ID      int
	From    *Node
	To      *Node
	Bps     float64 // capacity, bytes per second
	Latency float64 // propagation delay, seconds

	// BackgroundLoad is the fraction of capacity consumed by ambient
	// traffic not modeled as flows (0..1). The usable capacity is
	// Bps*(1-BackgroundLoad).
	BackgroundLoad float64

	// accounting
	bytesCarried float64
}

// usable returns the capacity available to simulated flows.
func (l *Link) usable() float64 {
	u := l.Bps * (1 - l.BackgroundLoad)
	if u < 0 {
		return 0
	}
	return u
}

// BytesCarried returns the cumulative bytes this link direction has
// carried (flow-level accounting).
func (l *Link) BytesCarried() float64 { return l.bytesCarried }

// Topology is the shared graph under both network models.
type Topology struct {
	nodes []*Node
	links []*Link
	// out[from.ID] lists directed links leaving the node.
	out [][]*Link
	// nextLink[src][dst] is the first directed link on the shortest
	// path src→dst, nil when unreachable or src == dst.
	nextLink [][]*Link
	// paths[src][dst] caches Route's answer, filled on first use.
	paths  [][][]*Link
	routed bool
}

// NewTopology returns an empty topology.
func NewTopology() *Topology { return &Topology{} }

// AddNode creates a node.
func (t *Topology) AddNode(name string) *Node {
	n := &Node{ID: len(t.nodes), Name: name}
	t.nodes = append(t.nodes, n)
	t.out = append(t.out, nil)
	t.routed = false
	return n
}

// Nodes returns all nodes in creation order.
func (t *Topology) Nodes() []*Node { return t.nodes }

// Links returns all directed links in creation order.
func (t *Topology) Links() []*Link { return t.links }

// Connect joins a and b with a full-duplex link: bps bytes/second and
// the given one-way latency in each direction. It returns the two
// directed links (a→b, b→a). It panics unless bps is finite and
// positive and latency finite and not negative.
func (t *Topology) Connect(a, b *Node, bps, latency float64) (*Link, *Link) {
	if a == b {
		panic("netsim: Connect node to itself")
	}
	if !(bps > 0 && bps <= math.MaxFloat64 && latency >= 0 && latency <= math.MaxFloat64) {
		panic(fmt.Sprintf("netsim: Connect %s-%s with bps=%v latency=%v, want a finite bps > 0 and a finite latency >= 0",
			a.Name, b.Name, bps, latency))
	}
	ab := &Link{ID: len(t.links), From: a, To: b, Bps: bps, Latency: latency}
	t.links = append(t.links, ab)
	ba := &Link{ID: len(t.links), From: b, To: a, Bps: bps, Latency: latency}
	t.links = append(t.links, ba)
	t.out[a.ID] = append(t.out[a.ID], ab)
	t.out[b.ID] = append(t.out[b.ID], ba)
	t.routed = false
	return ab, ba
}

// ComputeRoutes (re)builds the all-pairs next-hop table by BFS from
// every node. It is called automatically on first use; call it
// explicitly after mutating a live topology.
func (t *Topology) ComputeRoutes() {
	n := len(t.nodes)
	t.nextLink = make([][]*Link, n)
	t.paths = make([][][]*Link, n)
	for src := 0; src < n; src++ {
		t.nextLink[src] = make([]*Link, n)
		// BFS over hops from src; record the first link taken.
		visited := make([]bool, n)
		visited[src] = true
		type qe struct {
			node  int
			first *Link
		}
		queue := []qe{{node: src}}
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			for _, l := range t.out[cur.node] {
				dst := l.To.ID
				if visited[dst] {
					continue
				}
				visited[dst] = true
				first := cur.first
				if first == nil {
					first = l
				}
				t.nextLink[src][dst] = first
				queue = append(queue, qe{node: dst, first: first})
			}
		}
	}
	t.routed = true
}

// Route returns the directed links on the shortest path src→dst.
// It returns nil when dst is unreachable, and an empty path when
// src == dst. The path is built once per pair and shared by every
// caller until ComputeRoutes runs again, so callers must not modify it.
func (t *Topology) Route(src, dst *Node) []*Link {
	if !t.routed {
		t.ComputeRoutes()
	}
	if src == dst {
		return []*Link{}
	}
	row := t.paths[src.ID]
	if row == nil {
		row = make([][]*Link, len(t.nodes))
		t.paths[src.ID] = row
	}
	if path := row[dst.ID]; path != nil {
		return path
	}
	var path []*Link
	cur := src
	for cur != dst {
		l := t.nextLink[cur.ID][dst.ID]
		if l == nil {
			return nil
		}
		// Follow hop-by-hop: the next-hop table stores the *first*
		// link; advance to its far end and continue.
		path = append(path, l)
		cur = l.To
		if len(path) > len(t.links) {
			panic("netsim: routing loop")
		}
	}
	row[dst.ID] = path[:len(path):len(path)] // an append copies, never writes into the cache
	return row[dst.ID]
}

// PathLatency returns the summed one-way latency along src→dst, or -1
// when unreachable.
func (t *Topology) PathLatency(src, dst *Node) float64 {
	route := t.Route(src, dst)
	if route == nil {
		return -1
	}
	sum := 0.0
	for _, l := range route {
		sum += l.Latency
	}
	return sum
}

// Fabric abstracts the two network granularities: a transfer of a
// number of bytes between two nodes, completing via callback or
// blocking a simulated process.
type Fabric interface {
	// Transfer moves bytes from src to dst, invoking done with the
	// completion time. It panics when dst is unreachable.
	Transfer(src, dst *Node, bytes float64, done func())
	// SendOp is the op form of Send: op(arg) runs in a zero-delay
	// event after the transfer completes, where a process blocked in
	// Send would resume.
	SendOp(src, dst *Node, bytes float64, op des.Op, arg []byte)
	// Send blocks the calling process until the transfer completes.
	Send(p *des.Process, src, dst *Node, bytes float64)
	// Topo exposes the underlying topology.
	Topo() *Topology
}

// send is Fabric.Send for both fabrics: the blocking form of SendOp.
func send(p *des.Process, f Fabric, src, dst *Node, bytes float64) {
	p.Await(func(op des.Op, arg []byte) { f.SendOp(src, dst, bytes, op, arg) })
}
