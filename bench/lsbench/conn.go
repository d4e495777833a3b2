package main

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// connStats is what crossed one wrapped connection, counted and timed
// at the boundary the benchmark owns: the net.Conn it hands to
// Coordinator.Serve (through a wrapped listener) and to Worker.Dial.
// distsim puts one frame in one Write, so writes counts frames sent;
// reads go through distsim's bufio.Reader, so Read calls are not frames
// and only bytesIn is comparable with its own counters.
type connStats struct {
	writes            atomic.Int64
	bytesIn, bytesOut atomic.Int64
	// readNs and writeNs are wall time inside Read and Write. On a
	// request/response link readNs is the time this side waited for
	// its peer.
	readNs, writeNs atomic.Int64
	// busyNs sums the gaps from the end of the last Read to the start
	// of the next Write: on a worker link, the time the worker spent
	// delivering, executing and marshalling one window.
	busyNs      atomic.Int64
	lastReadEnd atomic.Int64

	// writeAt keeps the start of every Write when recordWrites is set
	// (the coordinator's link to slot 0: one window frame per window,
	// so the gaps are the window periods).
	recordWrites bool
	mu           sync.Mutex
	writeAt      []int64
}

// ioTotals is a plain copy of the counters, so a read-out taken when
// set-up ends can be subtracted from the one taken after the run.
type ioTotals struct {
	writes, bytesIn, bytesOut, readNs, writeNs, busyNs int64
}

func (s *connStats) totals() ioTotals {
	return ioTotals{
		writes:  s.writes.Load(),
		bytesIn: s.bytesIn.Load(), bytesOut: s.bytesOut.Load(),
		readNs: s.readNs.Load(), writeNs: s.writeNs.Load(), busyNs: s.busyNs.Load(),
	}
}

func (a ioTotals) add(b ioTotals) ioTotals {
	return ioTotals{
		writes:  a.writes + b.writes,
		bytesIn: a.bytesIn + b.bytesIn, bytesOut: a.bytesOut + b.bytesOut,
		readNs: a.readNs + b.readNs, writeNs: a.writeNs + b.writeNs, busyNs: a.busyNs + b.busyNs,
	}
}

func (a ioTotals) sub(b ioTotals) ioTotals {
	return ioTotals{
		writes:  a.writes - b.writes,
		bytesIn: a.bytesIn - b.bytesIn, bytesOut: a.bytesOut - b.bytesOut,
		readNs: a.readNs - b.readNs, writeNs: a.writeNs - b.writeNs, busyNs: a.busyNs - b.busyNs,
	}
}

// clock anchors the monotonic timestamps of one child process.
var clock = time.Now()

func nowNs() int64 { return int64(time.Since(clock)) }

type countingConn struct {
	net.Conn
	st *connStats
}

func (c *countingConn) Read(p []byte) (int, error) {
	start := nowNs()
	n, err := c.Conn.Read(p)
	end := nowNs()
	c.st.bytesIn.Add(int64(n))
	c.st.readNs.Add(end - start)
	c.st.lastReadEnd.Store(end)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	start := nowNs()
	if last := c.st.lastReadEnd.Swap(0); last != 0 {
		c.st.busyNs.Add(start - last)
	}
	if c.st.recordWrites {
		c.st.mu.Lock()
		c.st.writeAt = append(c.st.writeAt, start)
		c.st.mu.Unlock()
	}
	n, err := c.Conn.Write(p)
	c.st.writes.Add(1)
	c.st.bytesOut.Add(int64(n))
	c.st.writeNs.Add(nowNs() - start)
	return n, err
}

// countingListener wraps every accepted connection; the first one
// records its write times.
type countingListener struct {
	net.Listener
	mu    sync.Mutex
	conns []*connStats
}

func (l *countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	st := &connStats{recordWrites: len(l.conns) == 0}
	l.conns = append(l.conns, st)
	l.mu.Unlock()
	return &countingConn{Conn: conn, st: st}, nil
}

func (l *countingListener) stats() []*connStats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]*connStats(nil), l.conns...)
}
