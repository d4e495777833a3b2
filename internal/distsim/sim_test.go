package distsim

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"net"
	"os"
	"runtime"
	"sync"
	"testing"
	"time"
)

// sim is the scripted environment the e2e suites run clusters on: a
// virtual clock, in-memory conns and listeners that honour deadlines on
// that clock, and a register of the goroutines a run owns (Serve, each
// Run, each heartbeat). The clock moves only when every one of them
// waits inside sim — on a read, a write, an accept, a sleep or a
// heartbeat tick — and none can go on; it then jumps to the earliest
// deadline any of them armed. A test therefore runs on the default 30 s
// Timeout in the CPU time it needs. When all of them wait and none armed
// a deadline the run is deadlocked: sim fails the test with every
// goroutine's stack, and from then on every wait fails.
//
// Only goroutines the run owns may wait in sim: the test's own
// goroutine drives a run through loopback or run, which wait for it
// from outside.
//
// Every scripted fault comes from one place, the fault hook: the
// network asks it about each frame a host writes (one conn Write is one
// frame, peer.writeFrame) and does what it answers (fate). The hook
// runs under sim.mu, so it keeps state without locks, and it decides on
// the scripted clock: a kill or a cut lands on the same frame every run.
type sim struct {
	t     testing.TB
	mu    sync.Mutex
	cond  *sync.Cond
	clock time.Time
	live  int              // goroutines the run owns that have not returned
	waits map[*waiter]bool // those of them waiting in sim
	dead  bool

	fault func(wired) fate  // nil: every frame is delivered
	ln    *simListener      // the coordinator's, which a kill takes down
	cuts  map[int]time.Time // host -> when it is back on the network
	win   map[int]uint64    // worker host -> the newest window delivered to it
}

// coord is the coordinator's host; worker hosts are numbered from 0.
const coord = -1

// wired is one frame a host writes, as the fault hook sees it.
type wired struct {
	from, to int // the writing host and the one the conn leads to
	kind     frameKind
	// seq is a window frame's barrier, else the newest window delivered
	// to the conn's worker: a done frame's is the window it answers.
	seq uint64
	at  time.Time
}

// fate is what the network does with one frame. A cut takes the
// writer's host off the network for span (0: for good): every frame
// from or to it vanishes, this one included, and every dial from or to
// it is refused. A kill is the coordinator's death: the frame is lost,
// every conn its listener handed out is reset, and dials and accepts
// are refused until the script restarts the listener.
type fate struct {
	act  act
	span time.Duration
}

type act uint8

const (
	deliver act = iota
	drop        // the frame vanishes; its writer believes it went out
	dup         // the frame arrives twice
	cut
	kill
)

// waiter is one goroutine waiting in sim: for ready, or for the clock to
// reach until (zero: never). Both are read under sim.mu.
type waiter struct {
	ready func() bool
	until func() time.Time
}

func newSim(t testing.TB) *sim {
	s := &sim{t: t, clock: time.Unix(1e9, 0), waits: map[*waiter]bool{}, cuts: map[int]time.Time{}, win: map[int]uint64{}}
	s.cond = sync.NewCond(&s.mu)
	return s
}

func never() time.Time { return time.Time{} }

// block waits, holding s.mu, until ready or until the clock reaches
// until, and reports whether ready.
func (s *sim) block(ready func() bool, until func() time.Time) bool {
	w := &waiter{ready, until}
	s.waits[w] = true
	defer delete(s.waits, w)
	for {
		if ready() {
			return true
		}
		if at := until(); s.dead || !at.IsZero() && !at.After(s.clock) {
			return false
		}
		if !s.advance() {
			s.cond.Wait()
		}
	}
}

// advance moves the clock, holding s.mu, when every goroutine of the
// run waits and none can go on, and reports whether it did (or found
// the run deadlocked).
func (s *sim) advance() bool {
	if len(s.waits) > s.live {
		s.t.Errorf("a goroutine the run does not own waits in the scripted clock:\n%s", stacks())
	}
	if s.live == 0 || len(s.waits) < s.live {
		return false
	}
	var next time.Time
	for w := range s.waits {
		at := w.until()
		if w.ready() || !at.IsZero() && !at.After(s.clock) {
			return false
		}
		if !at.IsZero() && (next.IsZero() || at.Before(next)) {
			next = at
		}
	}
	if next.IsZero() {
		s.dead = true
		s.t.Errorf("deadlock: every goroutine of the run waits and none armed a deadline:\n%s", stacks())
	} else {
		s.clock = next
	}
	s.cond.Broadcast()
	return true
}

func stacks() string {
	buf := make([]byte, 1<<20)
	return string(buf[:runtime.Stack(buf, true)])
}

// spawn runs f on a goroutine the run owns.
func (s *sim) spawn(f func()) {
	s.mu.Lock()
	s.live++
	s.mu.Unlock()
	go func() {
		defer func() {
			s.mu.Lock()
			s.live--
			s.advance()
			s.cond.Broadcast()
			s.mu.Unlock()
		}()
		f()
	}()
}

// result is what a goroutine of the run returned.
type result struct {
	s    *sim
	err  error
	done chan struct{} // closed once err is set
}

// start runs f on a goroutine the run owns.
func (s *sim) start(f func() error) *result {
	r := &result{s: s, done: make(chan struct{})}
	s.spawn(func() {
		err := f()
		s.mu.Lock()
		r.err = err
		close(r.done)
		s.cond.Broadcast()
		s.mu.Unlock()
	})
	return r
}

// wait returns r's error once it has one; for goroutines of the run.
func (r *result) wait() error {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	r.s.block(func() bool {
		select {
		case <-r.done:
			return true
		default:
			return false
		}
	}, never)
	return r.err
}

// finish calls f on a goroutine of its own and returns its error once
// every goroutine of the run has returned as well. Past a minute of
// wall time something blocked outside the clock: the test fails with
// every stack.
func (s *sim) finish(f func() error) error {
	s.t.Helper()
	ch := make(chan error, 1)
	go func() {
		err := f()
		s.mu.Lock()
		for s.live > 0 {
			s.cond.Wait()
		}
		s.mu.Unlock()
		ch <- err
	}()
	select {
	case err := <-ch:
		return err
	case <-time.After(time.Minute):
		s.t.Fatalf("run wedged outside the scripted clock:\n%s", stacks())
		return nil
	}
}

// run calls script on a goroutine the run owns — the operator that
// starts workers and coordinators — and returns its error once the run
// is over.
func (s *sim) run(script func() error) error {
	s.t.Helper()
	return s.finish(func() error {
		r := s.start(script)
		<-r.done
		return r.err
	})
}

// loopback is Loopback on the scripted clock; worker i without a Dial
// of its own dials from host i.
func (s *sim) loopback(c *Coordinator, workers []*Worker, wrap func(net.Listener) net.Listener) error {
	s.t.Helper()
	ln := s.listen()
	for i, w := range workers {
		if w.Dial == nil {
			w.Dial = ln.host(i)
		}
	}
	s.attach(c, workers...)
	return s.finish(func() error { return cluster(c, workers, ln, nil, wrap, s.spawn) })
}

// attach puts c and the workers on the scripted clock.
func (s *sim) attach(c *Coordinator, workers ...*Worker) {
	if c != nil {
		c.env = s
	}
	for _, w := range workers {
		w.env = s
	}
}

// The env methods.

func (s *sim) now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.clock
}

func (s *sim) sleep(d time.Duration) {
	s.mu.Lock()
	defer s.mu.Unlock()
	at := s.clock.Add(d)
	s.block(func() bool { return false }, func() time.Time { return at })
}

func (s *sim) every(d time.Duration, f func() bool) (stop func()) {
	var quit, done bool // under s.mu
	s.spawn(func() {
		defer func() {
			s.mu.Lock()
			done = true
			s.cond.Broadcast()
			s.mu.Unlock()
		}()
		for f() {
			s.mu.Lock()
			at := s.clock.Add(d)
			s.block(func() bool { return quit }, func() time.Time { return at })
			over := quit || s.dead
			s.mu.Unlock()
			if over {
				return
			}
		}
	})
	return func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		quit = true
		s.cond.Broadcast()
		s.block(func() bool { return done }, never)
	}
}

// pipeCap is what one direction of a conn holds before a write waits:
// about a loopback TCP socket's buffers.
const pipeCap = 4 << 20

// pipe is one direction of a conn: what one end wrote and the other
// has not read.
type pipe struct {
	buf    []byte
	closed bool // the writer closed: EOF once buf is drained
	gone   bool // the reader closed: writes fail
}

// simConn is one end of an in-memory connection, written by host from.
// Everything in it is guarded by its sim's mu.
type simConn struct {
	s        *sim
	in, out  *pipe
	from, to int
	closed   bool
	rdl, wdl time.Time
}

var errPipe = errors.New("sim: connection reset by peer")

func (c *simConn) Read(b []byte) (int, error) {
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	s.block(func() bool { return c.closed || len(c.in.buf) > 0 || c.in.closed }, func() time.Time { return c.rdl })
	switch {
	case c.closed:
		return 0, net.ErrClosed
	case len(c.in.buf) > 0:
		n := copy(b, c.in.buf)
		c.in.buf = c.in.buf[n:]
		s.cond.Broadcast()
		return n, nil
	case c.in.closed:
		return 0, io.EOF
	}
	return 0, os.ErrDeadlineExceeded
}

func (c *simConn) Write(b []byte) (int, error) {
	s := c.s
	s.mu.Lock()
	defer s.mu.Unlock()
	copies := 1
	if !c.closed && !c.out.gone {
		copies = s.route(c, b)
	}
	if copies < 0 {
		return 0, errPipe
	}
	for range copies {
		if n, err := c.put(b); err != nil {
			return n, err
		}
	}
	return len(b), nil
}

// route decides, holding s.mu, how many copies of the frame b that c's
// host writes arrive, -1 when the write killed the coordinator: the
// fault hook's answer, then the cuts in force.
func (s *sim) route(c *simConn, b []byte) int {
	copies, f := 1, s.parse(c, b)
	if f != nil {
		switch v := s.fault(*f); v.act {
		case drop:
			copies = 0
		case dup:
			copies = 2
		case cut:
			s.cuts[c.from] = s.clock.Add(cmp.Or(v.span, time.Duration(math.MaxInt64)))
		case kill:
			s.ln.kill()
			return -1
		}
	}
	if s.off(c.from) || s.off(c.to) {
		return 0
	}
	if f != nil && copies > 0 && f.kind == frameWindow {
		s.win[c.to] = f.seq
	}
	return copies
}

// parse reads b as the fault hook sees it: nil when there is no hook,
// or b is not one intact frame (an injector corrupted it).
func (s *sim) parse(c *simConn, b []byte) *wired {
	if s.fault == nil || len(b) < wireHeaderLen {
		return nil
	}
	var fr frame
	var evs []Event
	p := b[wireHeaderLen:]
	if !bytes.Equal(appendWire(nil, binary.BigEndian.Uint64(b[4:]), binary.BigEndian.Uint64(b[12:]), p), b) ||
		unmarshalFrameInto(&fr, &evs, p) != nil {
		return nil
	}
	f := &wired{from: c.from, to: c.to, kind: fr.Kind, seq: fr.WinSeq, at: s.clock}
	if f.kind != frameWindow {
		f.seq = s.win[max(c.from, c.to)]
	}
	return f
}

// off reports, holding s.mu, whether host h is cut off the network.
func (s *sim) off(h int) bool { return s.clock.Before(s.cuts[h]) }

// put writes b into c's outbound pipe, holding s.mu, waiting for room.
func (c *simConn) put(b []byte) (int, error) {
	s := c.s
	n := 0
	for {
		switch {
		case c.closed:
			return n, net.ErrClosed
		case c.out.gone:
			return n, errPipe
		}
		if k := min(pipeCap-len(c.out.buf), len(b)-n); k > 0 {
			c.out.buf = append(c.out.buf, b[n:n+k]...)
			n += k
			s.cond.Broadcast()
		}
		if n == len(b) {
			return n, nil
		}
		room := func() bool { return c.closed || c.out.gone || len(c.out.buf) < pipeCap }
		if !s.block(room, func() time.Time { return c.wdl }) {
			return n, os.ErrDeadlineExceeded
		}
	}
}

func (c *simConn) Close() error {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	c.reset()
	return nil
}

// reset closes c, holding s.mu: the other end reads what c wrote, then
// EOF, and its writes fail.
func (c *simConn) reset() {
	c.closed, c.out.closed, c.in.gone = true, true, true
	c.s.cond.Broadcast()
}

func (c *simConn) SetDeadline(t time.Time) error {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	c.rdl, c.wdl = t, t
	c.s.cond.Broadcast()
	return nil
}

func (c *simConn) SetReadDeadline(t time.Time) error {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	c.rdl = t
	c.s.cond.Broadcast()
	return nil
}

func (c *simConn) SetWriteDeadline(t time.Time) error {
	c.s.mu.Lock()
	defer c.s.mu.Unlock()
	c.wdl = t
	c.s.cond.Broadcast()
	return nil
}

type simAddr struct{}

func (simAddr) Network() string { return "sim" }
func (simAddr) String() string  { return "sim" }

func (c *simConn) LocalAddr() net.Addr  { return simAddr{} }
func (c *simConn) RemoteAddr() net.Addr { return simAddr{} }

// simListener queues the server ends of the conns dialed to it.
type simListener struct {
	s      *sim
	queue  []*simConn
	ends   []*simConn // every server end it handed out: what a kill resets
	closed bool
	down   bool // killed and not yet restarted
	dl     time.Time
}

// listen opens the coordinator's listener; a run has one.
func (s *sim) listen() *simListener {
	if s.ln != nil {
		s.t.Fatal("sim: a second listener")
	}
	s.ln = &simListener{s: s}
	return s.ln
}

// host is host h's way to l, a Worker.Dial.
func (l *simListener) host(h int) func() (net.Conn, error) {
	return func() (net.Conn, error) { return l.dial(h) }
}

// dial connects host h to l. It is refused once l is closed, while it
// is down, and while either end's host is cut off.
func (l *simListener) dial(h int) (net.Conn, error) {
	s := l.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if l.closed || l.down || s.dead || s.off(h) || s.off(coord) {
		return nil, errors.New("sim: connection refused")
	}
	ab, ba := &pipe{}, &pipe{}
	end := &simConn{s: s, in: ba, out: ab, from: coord, to: h}
	l.queue = append(l.queue, end)
	l.ends = append(l.ends, end)
	s.cond.Broadcast()
	return &simConn{s: s, in: ab, out: ba, from: h, to: coord}, nil
}

func (l *simListener) Accept() (net.Conn, error) {
	s := l.s
	s.mu.Lock()
	defer s.mu.Unlock()
	s.block(func() bool { return l.closed || l.down || len(l.queue) > 0 }, func() time.Time { return l.dl })
	switch {
	case l.closed || l.down:
		return nil, net.ErrClosed
	case len(l.queue) > 0:
		c := l.queue[0]
		l.queue = l.queue[1:]
		return c, nil
	}
	return nil, os.ErrDeadlineExceeded
}

// Close refuses further dials and resets the queued conns, as a closed
// TCP listener does.
func (l *simListener) Close() error {
	s := l.s
	s.mu.Lock()
	defer s.mu.Unlock()
	l.closed = true
	for _, c := range l.queue {
		c.reset()
	}
	l.queue = nil
	s.cond.Broadcast()
	return nil
}

// kill takes the coordinator down, holding s.mu: every conn l handed
// out is reset, and dials and accepts are refused until restart.
func (l *simListener) kill() {
	l.down = true
	for _, c := range l.ends {
		c.reset()
	}
	l.ends, l.queue = nil, nil
}

// restart brings the killed coordinator's host back up.
func (l *simListener) restart() {
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	l.down = false
	l.s.cond.Broadcast()
}

func (l *simListener) Addr() net.Addr { return simAddr{} }

func (l *simListener) SetDeadline(t time.Time) error {
	l.s.mu.Lock()
	defer l.s.mu.Unlock()
	l.dl = t
	l.s.cond.Broadcast()
	return nil
}
