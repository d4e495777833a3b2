package distsim

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

// peerPair builds two framed peers over an in-memory pipe.
func peerPair(t *testing.T) (*peer, *peer) {
	t.Helper()
	a, b := net.Pipe()
	pa, pb := newPeer(nil, a), newPeer(nil, b)
	t.Cleanup(func() { pa.close(); pb.close() })
	return pa, pb
}

func TestFrameRoundTrip(t *testing.T) {
	f := &frame{
		Kind: frameWindow, End: 12.5,
		Events: []Event{{Time: 1.5, From: 2, To: 3, Seq: 9, Data: []byte("payload")}},
	}
	var got frame
	var evs []Event
	if err := unmarshalFrameInto(&got, &evs, marshalFrameInto(f, nil)); err != nil {
		t.Fatal(err)
	}
	if got.Kind != f.Kind || got.End != f.End || len(got.Events) != 1 {
		t.Fatalf("round trip mangled frame: %+v", got)
	}
	ev := got.Events[0]
	if ev.Time != 1.5 || ev.From != 2 || ev.To != 3 || ev.Seq != 9 || string(ev.Data) != "payload" {
		t.Fatalf("round trip mangled event: %+v", ev)
	}

	// Stats frames carry maps; they must round trip sorted and intact.
	sf := &frame{Kind: frameStats, Stats: WorkerStats{
		LPs: []int{0, 1}, EventsExecuted: 7, Sent: 3, Received: 2,
		PerLPCounts: map[int]uint64{1: 10, 0: 20},
	}}
	if err := unmarshalFrameInto(&got, &evs, marshalFrameInto(sf, nil)); err != nil {
		t.Fatal(err)
	}
	if got.Stats.PerLPCounts[0] != 20 || got.Stats.PerLPCounts[1] != 10 {
		t.Fatalf("stats counts mangled: %+v", got.Stats)
	}
}

func TestMalformedPayloadIsTypedError(t *testing.T) {
	for name, payload := range map[string][]byte{
		"empty":       {},
		"truncated":   marshalFrameInto(&frame{Kind: frameWindow}, nil)[:3],
		"zero kind":   append([]byte{0}, marshalFrameInto(&frame{Kind: frameWindow}, nil)[1:]...),
		"trailing":    append(marshalFrameInto(&frame{Kind: frameStop}, nil), 0xAA),
		"event bomb":  {byte(frameWindow), 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f},
		"garbage int": {byte(frameWindow), 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80},
	} {
		var f frame
		var evs []Event
		if err := unmarshalFrameInto(&f, &evs, payload); !errors.Is(err, ErrMalformedFrame) {
			t.Errorf("%s: err = %v, want ErrMalformedFrame", name, err)
		}
	}
}

// TestCorruptFrameIsTypedErrorNotPanic is the headline hardening
// property: a flipped byte anywhere in a frame surfaces as
// ErrCorruptFrame (CRC) or ErrMalformedFrame (parse) on that frame —
// never a panic, never a silently wrong decode.
func TestCorruptFrameIsTypedErrorNotPanic(t *testing.T) {
	f := &frame{Kind: frameWindow, End: 3.5, Events: []Event{{Time: 1, From: 0, To: 1, Seq: 1, Data: []byte("x")}}}
	payload := marshalFrameInto(f, nil)
	for flip := 0; flip < wireHeaderLen+len(payload); flip++ {
		a, b := net.Pipe()
		pa, pb := newPeer(nil, a), newPeer(nil, b)

		// Build the wire image by writing through a real peer into a
		// pipe, capturing, flipping one byte, and replaying.
		done := make(chan error, 1)
		go func() { done <- pa.writeFrame(1, payload) }()
		wire := make([]byte, wireHeaderLen+len(payload))
		if _, err := readFull(b, wire); err != nil {
			t.Fatal(err)
		}
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		pa.close()
		pb.close()

		wire[flip] ^= 0x01
		c, d := net.Pipe()
		pd := newPeer(nil, d)
		go func() { _, _ = c.Write(wire); c.Close() }()
		_, _, err := pd.readFrame(time.Second)
		if err == nil {
			// The flipped bit landed somewhere harmless? Impossible: CRC
			// covers seq, ack, and payload; length is validated by CRC
			// failing on the mis-framed read or by the length bound.
			t.Fatalf("flip at byte %d: corrupt frame decoded without error", flip)
		}
		if errors.Is(err, ErrCorruptFrame) || errors.Is(err, ErrMalformedFrame) {
			pd.close()
			continue
		}
		// Length-field flips can also surface as short reads (EOF or
		// timeout); those must still be errors, just transport-shaped.
		var ne net.Error
		if !errors.As(err, &ne) && !errors.Is(err, io.ErrUnexpectedEOF) && !errors.Is(err, io.EOF) {
			t.Fatalf("flip at byte %d: err = %v, want typed corruption or transport error", flip, err)
		}
		pd.close()
	}
}

func readFull(c net.Conn, buf []byte) (int, error) {
	_ = c.SetReadDeadline(time.Now().Add(2 * time.Second))
	n := 0
	for n < len(buf) {
		m, err := c.Read(buf[n:])
		n += m
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// TestPeerStickyErrorAfterCodecFailure pins the satellite-2 behavior:
// after any transport or codec failure the peer refuses all further
// traffic with the original error, so no later frame can be decoded
// out of a desynchronized byte stream.
func TestPeerStickyErrorAfterCodecFailure(t *testing.T) {
	pa, pb := peerPair(t)

	// Hand-craft a frame with a bad CRC.
	payload := marshalFrameInto(&frame{Kind: frameStop}, nil)
	buf := make([]byte, wireHeaderLen+len(payload))
	binary.BigEndian.PutUint32(buf[0:], uint32(len(payload)))
	binary.BigEndian.PutUint64(buf[4:], 1)
	binary.BigEndian.PutUint32(buf[20:], 0xdeadbeef) // wrong CRC
	copy(buf[wireHeaderLen:], payload)
	go func() { _, _ = pa.conn.Write(buf) }()

	_, _, err := pb.readFrame(time.Second)
	if !errors.Is(err, ErrCorruptFrame) {
		t.Fatalf("err = %v, want ErrCorruptFrame", err)
	}

	// A perfectly valid frame follows; the poisoned peer must refuse it.
	go func() { _ = pa.writeFrame(2, marshalFrameInto(&frame{Kind: frameStop}, nil)) }()
	if _, _, err2 := pb.readFrame(time.Second); !errors.Is(err2, ErrCorruptFrame) {
		t.Fatalf("sticky read err = %v, want the original ErrCorruptFrame", err2)
	}
	// Writes are refused too.
	if err3 := pb.writeFrame(0, nil); !errors.Is(err3, ErrCorruptFrame) {
		t.Fatalf("sticky write err = %v, want the original ErrCorruptFrame", err3)
	}
}

// TestReadFrameClearsDeadlineAfterFailure pins the deadline-hygiene
// fix: a read that fails (here: times out) must clear the connection
// deadline on its way out, so a later read on the same connection is
// not spuriously expired. Observable through the raw conn because the
// peer is sticky after the failure.
func TestReadFrameClearsDeadlineAfterFailure(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	pb := newPeer(nil, b)

	if _, _, err := pb.readFrame(30 * time.Millisecond); err == nil {
		t.Fatal("read with no data did not time out")
	}
	// The peer is sticky now; verify the *connection* deadline was
	// cleared: a raw read must block past the old deadline, not fail
	// instantly with a stale timeout.
	start := time.Now()
	errc := make(chan error, 1)
	go func() {
		buf := make([]byte, 1)
		_, err := b.Read(buf)
		errc <- err
	}()
	go func() {
		time.Sleep(80 * time.Millisecond)
		_, _ = a.Write([]byte{0x42})
	}()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("raw read after failed framed read: %v (stale deadline leaked)", err)
		}
		if time.Since(start) < 60*time.Millisecond {
			t.Fatal("raw read returned before the writer wrote: stale deadline fired")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("raw read never completed")
	}
}

// TestWriteFrameClearsDeadlineAfterFailure is the write-side twin: a
// write that fails against a full pipe clears the write deadline even
// though it errored.
func TestWriteFrameClearsDeadlineAfterFailure(t *testing.T) {
	a, b := net.Pipe()
	defer b.Close()
	pa := newPeer(nil, a)
	pa.writeTimeout = 30 * time.Millisecond

	// Nobody reads from b: the pipe write must hit the deadline.
	if err := pa.writeFrame(0, marshalFrameInto(&frame{Kind: frameStop}, nil)); err == nil {
		t.Fatal("write against a stuffed pipe did not time out")
	}
	// Deadline must be cleared on the raw conn: a reader appears late
	// and the raw write still succeeds.
	go func() {
		buf := make([]byte, 1)
		time.Sleep(80 * time.Millisecond)
		_, _ = b.Read(buf)
	}()
	_ = a.SetWriteDeadline(time.Time{}) // belt: what peer should have done
	if _, err := a.Write([]byte{1}); err != nil {
		t.Fatalf("raw write after failed framed write: %v", err)
	}
}

// linkPair returns the two ends of one seat's link over TCP (a
// net.Pipe write waits for its reader): the coordinator's and the
// worker's.
func linkPair(t *testing.T) (co, wo *link) {
	ln, addr := listen(t)
	cc, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cc.Close() })
	sc, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { sc.Close() })
	return newLink(newPeer(nil, cc)), newLink(newPeer(nil, sc))
}

// TestLinkAnswersEachRequestOnce pins link's numbering between a
// coordinator's end (co) and a worker's (wo): a new request is delivered
// once; one numbered equal to the worker's last answer is answered again
// from the kept reply, byte for byte, and not delivered; an older one is
// dropped; the coordinator delivers the reply to its request in flight
// once and drops every other.
func TestLinkAnswersEachRequestOnce(t *testing.T) {
	co, wo := linkPair(t)
	var errs []error
	do := func(err error) { errs = append(errs, err) }
	kind := func(l *link) frameKind {
		f, err := l.recv(time.Second)
		if do(err); err != nil {
			return 0
		}
		return f.Kind
	}
	do(co.send(&frame{Kind: frameWindow}))
	k1 := kind(wo)
	do(wo.send(&frame{Kind: frameDone, Next: 1.5}))
	n1, reply, err := co.p.readFrame(time.Second)
	reply = bytes.Clone(reply)
	do(err)
	do(co.resend()) // request 1 again, as after a heal, then request 2
	do(co.send(&frame{Kind: frameStop}))
	k2 := kind(wo)
	n2, again, err := co.p.readFrame(time.Second)
	do(err)
	same := bytes.Equal(again, reply)
	do(wo.send(&frame{Kind: frameStats}))
	do(wo.p.writeFrame(1, reply))
	do(wo.p.writeFrame(2, wo.last))
	do(wo.p.writeFrame(0, marshalFrameInto(&frame{Kind: frameHeartbeat}, nil)))
	k3, k4 := kind(co), kind(co)
	do(co.p.writeFrame(1, marshalFrameInto(&frame{Kind: frameWindow}, nil)))
	do(co.send(&frame{Kind: frameCheckpoint}))
	k5 := kind(wo)
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	w, c := wo.stats.Snapshot(), co.stats.Snapshot()
	switch {
	case k1 != frameWindow || k2 != frameStop || k3 != frameStats || k4 != frameHeartbeat || k5 != frameCheckpoint:
		t.Fatalf("delivered %s %s to the worker, %s %s to the coordinator, then %s", k1, k2, k3, k4, k5)
	case n1 != 1 || n2 != 1 || !same:
		t.Fatalf("answered request 1 as %d, then as %d; same bytes %v", n1, n2, same)
	case w.Retransmits != 1 || w.DupFrames != 1 || c.Retransmits != 1 || c.DupFrames != 2:
		t.Fatalf("worker retransmits/dups %d/%d, coordinator %d/%d; want 1/1, 1/2", w.Retransmits, w.DupFrames, c.Retransmits, c.DupFrames)
	}
}

// TestLinkKeepsNewestPayload pins what each end keeps: the coordinator
// its newest request, which resend writes again byte for byte while it
// is in flight and not once it is answered; the worker its newest
// reply, with which it answers a request it already answered.
func TestLinkKeepsNewestPayload(t *testing.T) {
	co, wo := linkPair(t)
	var errs []error
	do := func(err error) { errs = append(errs, err) }
	raw := func(p *peer) (uint64, []byte) {
		n, b, err := p.readFrame(time.Second)
		do(err)
		return n, bytes.Clone(b)
	}
	req := marshalFrameInto(&frame{Kind: frameWindow, End: 1}, nil)
	reply := marshalFrameInto(&frame{Kind: frameDone, Next: 1.5}, nil)
	stop := marshalFrameInto(&frame{Kind: frameStop}, nil)

	do(co.send(&frame{Kind: frameWindow, End: 1}))
	_, err := wo.recv(time.Second)
	do(err)
	do(co.resend()) // in flight: written again
	n1, again := raw(wo.p)
	do(wo.send(&frame{Kind: frameDone, Next: 1.5}))
	_, err = co.recv(time.Second)
	do(err)
	do(co.resend()) // answered: nothing written, so stop comes next
	do(co.send(&frame{Kind: frameStop}))
	n2, next := raw(wo.p)
	do(co.p.writeFrame(1, req)) // request 1 again, then a beat to end wo's recv
	do(co.p.sendRaw(&frame{Kind: frameHeartbeat}))
	_, err = wo.recv(time.Second)
	do(err)
	n3, answer := raw(co.p)
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	switch {
	case n1 != 1 || !bytes.Equal(again, req):
		t.Fatalf("resend in flight wrote request %d, same bytes %v", n1, bytes.Equal(again, req))
	case n2 != 2 || !bytes.Equal(next, stop):
		t.Fatalf("after the answer the worker read request %d next, stop %v", n2, bytes.Equal(next, stop))
	case n3 != 1 || !bytes.Equal(answer, reply):
		t.Fatalf("request 1 answered again as %d, same bytes %v", n3, bytes.Equal(answer, reply))
	case !bytes.Equal(co.last, stop) || !bytes.Equal(wo.last, reply):
		t.Fatal("a side keeps a payload other than its newest request or reply")
	case co.stats.Snapshot().Retransmits != 1 || wo.stats.Snapshot().Retransmits != 1:
		t.Fatalf("retransmits %d/%d, want 1/1", co.stats.Snapshot().Retransmits, wo.stats.Snapshot().Retransmits)
	}
}
