package distsim

import (
	"sync/atomic"
	"time"
)

// link is one seat's session, at the coordinator's end or the worker's,
// over the connections its worker dials in turn. The protocol never has
// more than one request in flight per seat, so the sequence space is
// one number per request: every sequenced coordinator frame is a
// request and takes the seat's next number, and the worker's one reply
// carries the number of the request it answers. Each side keeps one
// payload: the coordinator its newest request, to re-send on a
// connection the seat is re-adopted on, the worker its newest reply, to
// answer that request again without executing it.
//
// A received number means:
//   - at the worker, a request numbered above its last answer is new and
//     delivered; one numbered equal to it is answered again from the kept
//     reply; an older one is dropped;
//   - at the coordinator, the reply to the request in flight is delivered
//     once; any other reply is dropped.
//
// Handshakes, heartbeats and the bye are unsequenced (number 0) and pass
// through.
type link struct {
	p *peer
	// seq is the newest request: the one the coordinator sent last, the
	// one the worker received last. done is the newest request answered:
	// whose reply the coordinator delivered, or the worker sent. Atomics,
	// because the worker's heartbeat goroutine stamps both into its beats.
	seq, done atomic.Uint64
	// last is the kept payload: the coordinator's request seq, the
	// worker's reply to done. The next one is marshalled into its
	// buffer, so a steady window exchange allocates nothing.
	last []byte

	// rframe/revs are the pooled receive scratch: recv decodes every
	// frame into rframe, reusing revs as the Events array. The returned
	// *frame (and any Event.Data views into the peer's read buffer) is
	// valid until the next recv on this link; all receive loops fully
	// consume or copy a frame before reading the next one.
	rframe frame
	revs   []Event

	// stats is the session's transport counter set, adopted from the
	// first peer and carried across connections so counts span the whole
	// session.
	stats *wireStats
}

func newLink(p *peer) *link { return &link{p: p, stats: p.stats} }

// send transmits f: a request under the seat's next number, a reply
// under the number of the request it answers, anything else
// unsequenced. A sequenced payload is kept before the write, so one
// that dies on the wire can be sent again.
func (l *link) send(f *frame) error {
	var n uint64
	switch {
	case f.Kind.request():
		n = l.seq.Add(1)
	case f.Kind.sequenced():
		n = l.seq.Load()
		l.done.Store(n)
	default:
		return l.p.sendRaw(f)
	}
	l.last = marshalFrameInto(f, l.last)
	return l.p.writeFrame(n, l.last)
}

// recv returns the next frame the rules above deliver, under an
// optional deadline (d <= 0 blocks).
func (l *link) recv(d time.Duration) (*frame, error) {
	for {
		n, payload, err := l.p.readFrame(d)
		if err != nil {
			return nil, err
		}
		f := &l.rframe
		if err := unmarshalFrameInto(f, &l.revs, payload); err != nil {
			return nil, l.p.fail(err)
		}
		req, done := f.Kind.request(), l.done.Load()
		switch {
		case n == 0:
			return f, nil
		case req && n > done:
			l.seq.Store(n)
			return f, nil
		case req && n == done:
			l.stats.Retransmits.Add(1)
			if err := l.p.writeFrame(n, l.last); err != nil {
				return nil, err
			}
			continue
		case !req && n == l.seq.Load() && n > done:
			l.done.Store(n)
			return f, nil
		}
		l.stats.DupFrames.Add(1)
	}
}

// resend writes the coordinator's request in flight again, after the
// seat was re-adopted on a new connection; nothing once it is answered.
func (l *link) resend() error {
	n := l.seq.Load()
	if l.done.Load() == n {
		return nil
	}
	l.stats.Retransmits.Add(1)
	return l.p.writeFrame(n, l.last)
}

// adopt moves the session onto p, the connection its re-adoption
// handshake ran on, and closes the old one. The new connection's
// counters (the handshake's traffic) fold into the session's, which
// the new peer then counts into.
func (l *link) adopt(p *peer) {
	l.p.close()
	if p.stats != l.stats {
		l.stats.absorb(p.stats)
		p.stats = l.stats
	}
	l.p = p
}

func (l *link) close() {
	if l.p != nil {
		l.p.close()
	}
}
