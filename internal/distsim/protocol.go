// Package distsim implements truly distributed simulation execution:
// logical processes partitioned across operating-system processes (or
// hosts) that synchronize over TCP.
//
// The paper's execution axis distinguishes centralized engines from
// "simulators designed to make use of multiple processor units,
// running on different architectures and dispersed around a larger
// area", noting that "there are no pure distributed simulators for
// modeling large scale distributed systems" because — after Misra
// (1986) and Fujimoto (1993) — the synchronization cost rarely pays.
// This package makes that trade-off measurable: the same conservative
// lookahead-window protocol as package parsim, but with a TCP
// coordinator/worker topology and per-window barrier round trips.
// Running it on one host quantifies exactly the overhead the paper's
// skepticism is about; the protocol is nevertheless a complete,
// deployable distributed engine.
//
// Topology: one Coordinator, N Workers. Each worker owns a set of LPs
// (des.Engine instances). Per lookahead window the coordinator sends
// each worker the events addressed to its LPs, the worker advances its
// engines to the window end, and returns the cross-worker events its
// LPs produced. Determinism matches package parsim: events are
// globally ordered by (sending LP, per-LP sequence) before delivery,
// so a distributed run and a single-process run with equal seeds are
// bit-identical.
//
// Wire hardening (this layer): every frame travels length-prefixed
// with a CRC32 integrity trailer and a sequence number. Corruption and
// truncation surface as typed errors on the frame they hit. A seat has
// one request in flight at a time: the coordinator numbers it, the
// worker's reply carries the number, and each side keeps its newest
// payload, so a duplicate is dropped by number, a lost frame or a
// broken connection is healed by re-adopting the worker on a new
// connection and re-sending the request, and a request the worker has
// already answered is answered again without being executed twice — a
// misbehaving network costs a retry, never a wrong answer. See package
// chaos for the deterministic fault injector the protocol is validated
// against.
package distsim

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"sync"
	"time"
)

// Wire frame layout (all big-endian):
//
//	length uint32 — payload byte count
//	seq    uint64 — request number (0 = unsequenced; see link)
//	ack    uint64 — unused, always zero
//	crc    uint32 — CRC32-IEEE over seq | ack | payload
//	payload []byte — marshalFrameInto output
const (
	wireHeaderLen = 4 + 8 + 8 + 4
	// maxFrameLen bounds a payload (64 MiB): anything larger is a
	// corrupt length field, not a real frame.
	maxFrameLen = 64 << 20
)

// peer wraps one connection with framing, integrity checking, and a
// sticky error. Writes are serialized by a mutex because a worker's
// heartbeat goroutine sends concurrently with its main loop;
// writeTimeout, when set, bounds each frame write so a wedged socket
// surfaces an error instead of blocking forever. Deadlines are read off
// env's clock.
//
// The sticky error is the codec-desync guard: after any transport or
// codec failure the peer refuses further traffic with the original
// error, so a frame following a corrupt one can never be silently
// decoded out of what is now an untrustworthy byte stream. Recovery is
// a new connection (and a new peer), never a retry on the old one.
type peer struct {
	conn         net.Conn
	env          env
	br           *bufio.Reader
	sendMu       sync.Mutex
	writeTimeout time.Duration

	// wbuf/rbuf are the pooled wire buffers: wbuf is the outbound frame
	// image (guarded by sendMu), rbuf the inbound payload (owned by the
	// single reader goroutine). Both persist across frames, so a steady
	// window exchange allocates nothing on the wire path.
	wbuf []byte
	rbuf []byte

	// stats counts frames, bytes, and faults crossing this connection.
	// Always non-nil; a link adopts the pointer so counters survive
	// reconnects, and a worker shares one wireStats across every
	// connection it ever dials.
	stats *wireStats

	errMu sync.Mutex
	err   error
}

// newPeer wraps conn; a nil env is the wall clock.
func newPeer(e env, conn net.Conn) *peer {
	return &peer{conn: conn, env: orWall(e), br: bufio.NewReaderSize(conn, 1<<16), stats: &wireStats{}}
}

// fail records the first failure and returns it (or the earlier sticky
// error if one is already set).
func (p *peer) fail(err error) error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	if p.err == nil {
		p.err = err
	}
	return p.err
}

// stickyErr returns the recorded failure, nil while the peer is
// healthy.
func (p *peer) stickyErr() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.err
}

// writeFrame sends one framed payload in a single conn.Write (one
// "message" to the fault injector). The write deadline, when set, is
// always cleared afterwards — even when the write fails — so a later
// connection user never inherits a stale deadline.
func (p *peer) writeFrame(seq uint64, payload []byte) error {
	if len(payload) > maxFrameLen {
		return p.fail(fmt.Errorf("%w: oversized send (%d bytes)", ErrCorruptFrame, len(payload)))
	}
	p.sendMu.Lock()
	defer p.sendMu.Unlock()
	return p.writeLocked(seq, payload)
}

// writeLocked is writeFrame's body, run under sendMu.
func (p *peer) writeLocked(seq uint64, payload []byte) error {
	if err := p.stickyErr(); err != nil {
		return err
	}
	p.wbuf = appendWire(p.wbuf[:0], seq, 0, payload)
	buf := p.wbuf
	if p.writeTimeout > 0 {
		armWrite(p.conn, after(p.env, p.writeTimeout))
		defer armWrite(p.conn, time.Time{})
	}
	if _, err := p.conn.Write(buf); err != nil {
		p.stats.ConnFailures.Add(1)
		return p.fail(fmt.Errorf("distsim: send: %w", err))
	}
	p.stats.FramesSent.Add(1)
	p.stats.BytesSent.Add(uint64(len(buf)))
	return nil
}

// appendWire appends the on-the-wire image of one frame to dst, reusing
// its storage: header (length, seq, ack, CRC32 over seq|ack|payload)
// followed by the payload.
func appendWire(dst []byte, seq, ack uint64, payload []byte) []byte {
	off := len(dst)
	need := wireHeaderLen + len(payload)
	if cap(dst)-off < need {
		grown := make([]byte, off, off+need)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:off+need]
	buf := dst[off:]
	binary.BigEndian.PutUint32(buf[0:], uint32(len(payload)))
	binary.BigEndian.PutUint64(buf[4:], seq)
	binary.BigEndian.PutUint64(buf[12:], ack)
	copy(buf[wireHeaderLen:], payload)
	crc := crc32.ChecksumIEEE(buf[4:20])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	binary.BigEndian.PutUint32(buf[20:], crc)
	return dst
}

// MarshalWindowWire builds the exact bytes the hardened protocol puts
// on the wire for a window frame carrying evs — marshalled payload,
// length/sequence header, CRC trailer. Exported for lsbench's marshal
// probe; wire_bench_test.go prices the same bytes.
func MarshalWindowWire(evs []Event, end float64, seq, ack uint64) []byte {
	return appendWire(nil, seq, ack, marshalFrameInto(&frame{Kind: frameWindow, End: end, Events: evs}, nil))
}

// readFrame receives one framed payload under an optional deadline
// (d <= 0 blocks). Integrity failures return ErrCorruptFrame; either
// way the deadline is cleared before returning, so a failed read never
// leaves the connection armed.
//
// The returned payload aliases the peer's pooled read buffer: it is
// valid until the next readFrame on this peer. Callers that retain
// bytes (frame Data, handshake payloads) copy what they keep.
func (p *peer) readFrame(d time.Duration) (seq uint64, payload []byte, err error) {
	if err := p.stickyErr(); err != nil {
		return 0, nil, err
	}
	if d > 0 {
		armRead(p.conn, after(p.env, d))
		defer armRead(p.conn, time.Time{})
	}
	var hdr [wireHeaderLen]byte
	if _, err := io.ReadFull(p.br, hdr[:]); err != nil {
		p.stats.ConnFailures.Add(1)
		return 0, nil, p.fail(fmt.Errorf("distsim: recv: %w", err))
	}
	n := binary.BigEndian.Uint32(hdr[0:])
	seq = binary.BigEndian.Uint64(hdr[4:])
	want := binary.BigEndian.Uint32(hdr[20:])
	if n > maxFrameLen {
		p.stats.CorruptFrames.Add(1)
		return 0, nil, p.fail(fmt.Errorf("%w: length %d", ErrCorruptFrame, n))
	}
	if uint32(cap(p.rbuf)) < n {
		p.rbuf = make([]byte, n)
	}
	payload = p.rbuf[:n]
	if _, err := io.ReadFull(p.br, payload); err != nil {
		p.stats.ConnFailures.Add(1)
		return 0, nil, p.fail(fmt.Errorf("distsim: recv: %w", err))
	}
	crc := crc32.ChecksumIEEE(hdr[4:20])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if crc != want {
		p.stats.CorruptFrames.Add(1)
		return 0, nil, p.fail(fmt.Errorf("%w: CRC mismatch (stored %08x, computed %08x)", ErrCorruptFrame, want, crc))
	}
	p.stats.FramesRecv.Add(1)
	p.stats.BytesRecv.Add(uint64(wireHeaderLen) + uint64(n))
	return seq, payload, nil
}

// sendRaw marshals and sends an unsequenced frame (a handshake or the
// bye) in a payload buffer of its own.
func (p *peer) sendRaw(f *frame) error {
	return p.writeFrame(0, marshalFrameInto(f, nil))
}

// beat sends the heartbeat f unless another frame is being written: that
// frame is on its way, and a beat would only queue behind it. skipped
// reports the beat that did not go out.
func (p *peer) beat(f *frame) (skipped bool, err error) {
	if !p.sendMu.TryLock() {
		return true, nil
	}
	defer p.sendMu.Unlock()
	return false, p.writeLocked(0, marshalFrameInto(f, nil))
}

// recvRaw receives and parses one frame into a frame of its own,
// without sequence bookkeeping: the handshake path, before a link
// adopts the connection.
func (p *peer) recvRaw(d time.Duration) (*frame, error) {
	_, payload, err := p.readFrame(d)
	if err != nil {
		return nil, err
	}
	f := &frame{}
	var evs []Event
	if err := unmarshalFrameInto(f, &evs, payload); err != nil {
		p.stats.CorruptFrames.Add(1)
		return nil, p.fail(err)
	}
	return f, nil
}

// dead probes whether the connection is already closed by the other
// side, without consuming buffered bytes. It is only meaningful at
// points where the peer is not expected to be sending (e.g. a worker
// blocked waiting for its config frame): a short Peek that times out
// means alive-and-quiet, an immediate EOF/reset means gone.
func (p *peer) dead() bool {
	armRead(p.conn, after(p.env, deadProbe))
	defer armRead(p.conn, time.Time{})
	if _, err := p.br.Peek(1); err != nil {
		var ne net.Error
		if errors.As(err, &ne) && ne.Timeout() {
			return false
		}
		return true
	}
	return false
}

func (p *peer) close() { _ = p.conn.Close() }
