package distsim

import (
	"fmt"
	"sync/atomic"
	"time"
)

// link is the self-healing session layer over a sequence of peer
// connections. It numbers outbound sequenced frames with a monotonic
// per-peer counter, suppresses inbound duplicates, detects gaps, and
// retains every sent-but-unacked sequenced frame so that a reconnect
// can replay exactly the tail the other side never processed.
//
// Acks piggyback on every frame (the ack header field carries the
// sender's highest processed inbound sequence), so in steady state the
// retention window holds at most the last window's worth of frames —
// the protocol is request/response at window granularity, and each
// response acks the request.
type sentFrame struct {
	seq     uint64
	payload []byte
}

type link struct {
	p        *peer
	sendSeq  uint64 // last sequenced frame sent
	recvSeq  uint64 // highest sequenced frame processed
	retained []sentFrame

	// free recycles payload buffers between the retained list and the
	// marshal path: prune returns acknowledged payloads here, send takes
	// them back, so the steady-state window exchange marshals into
	// warmed buffers instead of allocating per frame.
	free [][]byte

	// rframe/revs are the pooled receive scratch: recv decodes every
	// frame into rframe, reusing revs as the Events array. The returned
	// *frame (and any Event.Data views into the peer's read buffer) is
	// valid until the next recv on this link; all receive loops fully
	// consume or copy a frame before reading the next one.
	rframe frame
	revs   []Event

	// Atomic mirrors of sendSeq/recvSeq for readers outside the owning
	// goroutine — the worker's heartbeat ticker stamps both watermarks
	// into every heartbeat so the coordinator can tell an alive worker
	// that lost a frame from one that is merely slow.
	sentOut atomic.Uint64
	ackedIn atomic.Uint64

	// stats is the session's transport counter set, adopted from the
	// first peer and carried across rebinds so counts span the whole
	// session, not one connection.
	stats *WireStats
}

func newLink(p *peer) *link { return &link{p: p, stats: p.stats} }

// send marshals and transmits a frame. Payload buffers cycle through
// the free list: unsequenced payloads return immediately after the
// write, sequenced ones when the peer's ack prunes them.
func (l *link) send(f *frame) error {
	var buf []byte
	if n := len(l.free); n > 0 {
		buf = l.free[n-1]
		l.free[n-1] = nil
		l.free = l.free[:n-1]
	}
	return l.sendPayload(f.Kind.sequenced(), marshalFrameInto(f, buf))
}

// sendPayload transmits a marshalled frame. A sequenced one is numbered
// and retained before the write, so a frame that dies on the wire is
// still replayable after a reconnect.
func (l *link) sendPayload(sequenced bool, payload []byte) error {
	var seq uint64
	if sequenced {
		l.sendSeq++
		seq = l.sendSeq
		l.sentOut.Store(l.sendSeq)
		l.retained = append(l.retained, sentFrame{seq: seq, payload: payload})
	}
	err := l.p.writeFrame(seq, l.recvSeq, payload)
	if !sequenced {
		l.free = append(l.free, payload)
	}
	return err
}

// recv returns the next frame under an optional deadline, applying the
// sequence discipline: duplicates (seq <= recvSeq) are dropped
// silently, in-order frames advance recvSeq, and a gap poisons the
// peer with ErrFrameGap — the caller reconnects and resumes.
func (l *link) recv(d time.Duration) (*frame, error) {
	for {
		seq, ack, payload, err := l.p.readFrame(d)
		if err != nil {
			return nil, err
		}
		l.prune(ack)
		f := &l.rframe
		if err := unmarshalFrameInto(f, &l.revs, payload); err != nil {
			return nil, l.p.fail(err)
		}
		if seq == 0 {
			return f, nil // handshake/heartbeat: outside the sequence space
		}
		switch {
		case seq <= l.recvSeq:
			l.stats.DupFrames.Add(1)
			continue // duplicate (retransmission overlap): suppress
		case seq == l.recvSeq+1:
			l.recvSeq = seq
			l.ackedIn.Store(seq)
			return f, nil
		default:
			l.stats.GapFrames.Add(1)
			return nil, l.p.fail(fmt.Errorf("%w: got seq %d, want %d", ErrFrameGap, seq, l.recvSeq+1))
		}
	}
}

// prune drops retained frames the peer has acknowledged, recycling
// their payload buffers into the free list.
func (l *link) prune(ack uint64) {
	i := 0
	for i < len(l.retained) && l.retained[i].seq <= ack {
		l.free = append(l.free, l.retained[i].payload)
		i++
	}
	if i > 0 {
		l.retained = append(l.retained[:0], l.retained[i:]...)
	}
}

// redoable reports whether this session can be redone from scratch on
// a fresh connection: the peer has never delivered a sequenced frame
// (so its externally visible state is nil) and everything we ever sent
// is still retained (so a full replay reconstructs the conversation).
// This discriminates a worker that lost the config frame — or died
// before its first window result was processed — from one whose
// results are already woven into the run, which only rollback recovery
// can reconcile.
func (l *link) redoable() bool {
	return l.recvSeq == 0 && uint64(len(l.retained)) == l.sendSeq
}

// rebind adopts a fresh connection for this session and replays every
// retained frame the peer reports not having processed (peerRecvSeq is
// the RecvSeq from the hello/resume handshake). The old connection is
// closed. The peer handed in must be the one the handshake ran on, so
// no buffered bytes are lost.
func (l *link) rebind(p *peer, peerRecvSeq uint64) error {
	if l.p != nil && l.p != p {
		l.p.close()
	}
	p.writeTimeout = l.p.writeTimeout
	// Fold the fresh connection's counters (handshake traffic) into the
	// session's, then hand the session counter set to the new peer so
	// stats keep accumulating in one place across reconnects.
	if p.stats != l.stats {
		l.stats.absorb(p.stats)
		p.stats = l.stats
	}
	l.p = p
	l.stats.Resumes.Add(1)
	l.prune(peerRecvSeq)
	l.stats.Retransmits.Add(uint64(len(l.retained)))
	for _, sf := range l.retained {
		if err := p.writeFrame(sf.seq, l.recvSeq, sf.payload); err != nil {
			return err
		}
	}
	return nil
}

func (l *link) close() {
	if l.p != nil {
		l.p.close()
	}
}
