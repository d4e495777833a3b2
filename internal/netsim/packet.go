package netsim

import (
	"fmt"
	"math"

	"repro/internal/des"
)

// PacketNet is the packet-level fabric: messages are segmented into
// MTU-sized packets that traverse the route hop by hop, store-and-
// forward, serializing on each link. It costs one event per packet
// per hop — the "time consuming operation that leads to better output
// results" of the paper's granularity axis — and exists both for
// fidelity studies and for the E7a flow-vs-packet ablation.
//
// Each directed link transmits one packet at a time (FIFO); a packet
// occupies the link for size/Bps seconds and then propagates for the
// link latency before contending for the next hop. A link with no
// usable capacity (BackgroundLoad 1) transmits nothing: packets queue
// on it for good and their messages never complete, as a flow across
// it stalls in Network.
type PacketNet struct {
	e    *des.Engine
	k    *packetKind
	topo *Topology

	// MTU is the maximum packet payload in bytes. Messages are split
	// into ceil(bytes/MTU) packets.
	MTU float64

	queues map[*Link]*linkQueue

	packetsSent uint64
	completed   uint64
}

type linkQueue struct {
	busy    bool
	waiting []*packet // waiting[head:] wait, in arrival order
	head    int
}

// push queues pkt behind the link's waiting packets, sliding them to
// the front of their array rather than growing it.
func (q *linkQueue) push(pkt *packet) {
	if q.head > 0 && len(q.waiting) == cap(q.waiting) {
		k := copy(q.waiting, q.waiting[q.head:])
		clear(q.waiting[k:])
		q.waiting, q.head = q.waiting[:k], 0
	}
	q.waiting = append(q.waiting, pkt)
}

// pop removes and returns the first waiting packet, nil when none
// waits.
func (q *linkQueue) pop() *packet {
	if q.head == len(q.waiting) {
		return nil
	}
	pkt := q.waiting[q.head]
	q.waiting[q.head] = nil
	if q.head++; q.head == len(q.waiting) {
		q.waiting, q.head = q.waiting[:0], 0
	}
	return pkt
}

// packet is a packet in flight, in its engine's packet table from
// its message's segmentation (or a local delivery's schedule) until it
// arrives.
type packet struct {
	pn    *PacketNet
	size  float64
	route []*Link
	hop   int
	q     *linkQueue // the queue of route[hop], set on enqueue
	msg   *message
	self  []byte // the packet's op argument
}

// packetKind holds the ops every packet fabric on one engine schedules
// its packets' events with, and the packets' free list.
type packetKind struct {
	pkts            des.Table[packet]
	tx, prop, local des.Op
}

func newPacketKind(e *des.Engine) *packetKind {
	k := &packetKind{}
	k.tx = e.RegisterOp("pnet:tx", func(self []byte) {
		pkt := k.pkts.At(self)
		pkt.pn.transmitted(pkt)
	})
	k.prop = e.RegisterOp("pnet:prop", func(self []byte) {
		pkt := k.pkts.At(self)
		pkt.pn.propagated(pkt)
	})
	k.local = e.RegisterOp("pnet:local", func(self []byte) {
		pkt := k.pkts.At(self)
		pn, msg := pkt.pn, pkt.msg
		k.pkts.Put(self)
		pn.deliver(msg)
	})
	return k
}

type message struct {
	packetsLeft int
	done        func() // Transfer's callback, run in the completing event
	then        des.Op // SendOp's continuation, run one event later
	arg         []byte
}

// NewPacketNet creates a packet-level fabric with the given MTU.
func NewPacketNet(e *des.Engine, topo *Topology, mtu float64) *PacketNet {
	if mtu <= 0 {
		panic(fmt.Sprintf("netsim: NewPacketNet with MTU %v", mtu))
	}
	return &PacketNet{e: e, k: des.PerEngine(e, newPacketKind), topo: topo, MTU: mtu, queues: make(map[*Link]*linkQueue)}
}

// Topo implements Fabric.
func (pn *PacketNet) Topo() *Topology { return pn.topo }

// PacketsSent returns the cumulative number of packet transmissions
// (per hop).
func (pn *PacketNet) PacketsSent() uint64 { return pn.packetsSent }

// Completed returns the number of finished messages.
func (pn *PacketNet) Completed() uint64 { return pn.completed }

// Transfer implements Fabric.
func (pn *PacketNet) Transfer(src, dst *Node, bytes float64, done func()) {
	pn.transfer(src, dst, bytes, &message{done: done})
}

// SendOp implements Fabric.
func (pn *PacketNet) SendOp(src, dst *Node, bytes float64, op des.Op, arg []byte) {
	pn.transfer(src, dst, bytes, &message{then: op, arg: arg})
}

func (pn *PacketNet) transfer(src, dst *Node, bytes float64, msg *message) {
	if bytes < 0 || math.IsNaN(bytes) || math.IsInf(bytes, 0) {
		panic(fmt.Sprintf("netsim: Transfer of %v bytes", bytes))
	}
	route := pn.topo.Route(src, dst)
	if route == nil {
		panic(fmt.Sprintf("netsim: no route %s -> %s", src.Name, dst.Name))
	}
	if len(route) == 0 || bytes == 0 {
		lat := 0.0
		for _, l := range route {
			lat += l.Latency
		}
		pkt, self := pn.k.pkts.Get()
		*pkt = packet{pn: pn, msg: msg, self: self}
		pn.e.ScheduleOp(lat, pn.k.local, self)
		return
	}
	npkts := int(math.Ceil(bytes / pn.MTU))
	msg.packetsLeft = npkts
	rest := bytes
	for i := 0; i < npkts; i++ {
		size := pn.MTU
		if size > rest {
			size = rest
		}
		rest -= size
		pkt, self := pn.k.pkts.Get()
		*pkt = packet{pn: pn, size: size, route: route, msg: msg, self: self}
		pn.enqueue(pkt)
	}
}

// Send implements Fabric.
func (pn *PacketNet) Send(p *des.Process, src, dst *Node, bytes float64) {
	send(p, pn, src, dst, bytes)
}

// deliver completes a message and continues its job: Transfer's done
// at once, SendOp's op one event later.
func (pn *PacketNet) deliver(msg *message) {
	pn.completed++
	switch {
	case msg.then != des.Op{}:
		pn.e.ScheduleOp(0, msg.then, msg.arg)
	case msg.done != nil:
		msg.done()
	}
}

func (pn *PacketNet) queueFor(l *Link) *linkQueue {
	q, ok := pn.queues[l]
	if !ok {
		q = &linkQueue{}
		pn.queues[l] = q
	}
	return q
}

// enqueue places the packet on its current hop's link queue.
func (pn *PacketNet) enqueue(pkt *packet) {
	q := pn.queueFor(pkt.route[pkt.hop])
	pkt.q = q
	if q.busy {
		q.push(pkt)
		return
	}
	pn.transmit(pkt)
}

// transmit occupies the packet's link for the serialization time (a
// pnet:tx event); transmitted and propagated take it from there.
func (pn *PacketNet) transmit(pkt *packet) {
	q := pkt.q
	q.busy = true
	usable := pkt.route[pkt.hop].usable()
	if usable <= 0 {
		// Nothing gets through: the link stays busy, and this packet
		// and every later one wait on it for good.
		q.push(pkt)
		return
	}
	pn.packetsSent++
	pn.e.ScheduleOp(pkt.size/usable, pn.k.tx, pkt.self)
}

// transmitted frees the link for its next queued packet, while this
// one propagates for the link latency (a pnet:prop event).
func (pn *PacketNet) transmitted(pkt *packet) {
	link, q := pkt.route[pkt.hop], pkt.q
	link.bytesCarried += pkt.size
	if next := q.pop(); next != nil {
		pn.transmit(next)
	} else {
		q.busy = false
	}
	pn.e.ScheduleOp(link.Latency, pn.k.prop, pkt.self)
}

// propagated forwards the packet to its next hop, or retires it and
// completes its message with the last packet.
func (pn *PacketNet) propagated(pkt *packet) {
	pkt.hop++
	if pkt.hop < len(pkt.route) {
		pn.enqueue(pkt)
		return
	}
	msg := pkt.msg
	pn.k.pkts.Put(pkt.self)
	msg.packetsLeft--
	if msg.packetsLeft == 0 {
		pn.deliver(msg)
	}
}

var _ Fabric = (*PacketNet)(nil)
