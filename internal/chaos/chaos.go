// Package chaos is a deterministic network-fault injector for
// validating the distributed simulation transport.
//
// The paper's taxonomy lists "support for validation" among the design
// requirements a credible simulator must meet; for a *distributed*
// engine, validation has to cover the network itself, because the wire
// is part of the state machine. This package wraps net.Conn and
// net.Listener with seed-driven fault injection — message drop, fixed
// and jittered delay, duplication, reordering, byte corruption,
// connection reset — where every fault decision is drawn from an
// rng.Source stream rather than from wall-clock randomness. Two runs
// with the same seed therefore inject the same faults at the same
// message indices, so a chaos failure reproduces under a debugger, and
// a chaos test can assert the strongest property there is: the
// simulation's final state is bit-identical to the fault-free run.
//
// Fault model granularity is the message, not the byte: the transport
// layer above frames each protocol message as a single Write call, and
// the injector treats each Write as one unit to drop, delay, corrupt,
// duplicate, or reorder. That deliberately models a datagram-like
// adversary on top of a stream — the strongest faults a framed
// protocol with integrity checks has to survive.
package chaos

import (
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"repro/internal/rng"
)

// Config selects fault classes and their intensities. Probabilities
// are per message in [0, 1]; zero disables the class entirely (and
// burns no random draws, so adding a fault class to a config does not
// reshuffle the decisions of the others... see Injector for the draw
// discipline).
type Config struct {
	// Seed drives every fault decision; equal seeds inject equal
	// faults at equal message indices.
	Seed uint64

	Drop    float64 // P(message silently discarded)
	Dup     float64 // P(message written twice)
	Reorder float64 // P(message held back and swapped with its successor)
	Corrupt float64 // P(one byte of the message flipped)
	Reset   float64 // P(connection forcibly closed at this message)

	// Delay and Jitter add a fixed plus uniformly drawn pause before
	// each message is written (simulated latency).
	Delay  time.Duration
	Jitter time.Duration

	// ResetAt forces a connection reset at these global message
	// indices (0-based, counted across all wrapped connections),
	// exactly once each — the deterministic way to script "the network
	// breaks during window 40".
	ResetAt []uint64
}

// Validate reports, as one line, a plan no injector can follow: a
// probability that is NaN or outside [0, 1] (a drop probability of 5
// would drop every message, a NaN one disable its class silently), or
// a negative Delay or Jitter.
func (c Config) Validate() error {
	names := [...]string{"drop", "dup", "reorder", "corrupt", "reset"}
	for i, p := range [...]float64{c.Drop, c.Dup, c.Reorder, c.Corrupt, c.Reset} {
		if !(p >= 0 && p <= 1) {
			return fmt.Errorf("chaos: %s probability must be in [0, 1], got %v", names[i], p)
		}
	}
	if c.Delay < 0 || c.Jitter < 0 {
		return fmt.Errorf("chaos: delay %v and jitter %v must be >= 0", c.Delay, c.Jitter)
	}
	return nil
}

// Stats counts the faults an injector actually delivered.
type Stats struct {
	Messages   uint64
	Dropped    uint64
	Duplicated uint64
	Reordered  uint64
	Corrupted  uint64
	Resets     uint64
	Delayed    uint64 // messages that slept (fixed delay or jitter)
}

// Injector applies a Config to connections. All wrapped connections
// share one message counter and one random stream, guarded by a mutex:
// the interleaving of messages across connections may vary between
// runs (goroutine scheduling), but each message's fault decision
// depends only on the draw sequence, and the per-class gating keeps
// disabled classes from consuming draws.
//
// Draw discipline: for message n the injector draws, in fixed order
// and only for classes with nonzero intensity — reset, drop, dup,
// reorder, corrupt (plus a position draw when corrupting), jitter.
// This order is part of the package contract; changing it changes
// which faults a given seed produces.
type Injector struct {
	cfg Config

	mu    sync.Mutex
	src   *rng.Source
	msgs  uint64
	fired map[uint64]bool // ResetAt indices already consumed
	stats Stats
}

// New builds an injector for the given fault plan.
func New(cfg Config) *Injector {
	in := &Injector{
		cfg: cfg,
		src: rng.New(cfg.Seed).Derive("chaos"),
	}
	if len(cfg.ResetAt) > 0 {
		in.fired = make(map[uint64]bool, len(cfg.ResetAt))
	}
	return in
}

// Stats returns a snapshot of the fault counters.
func (in *Injector) Stats() Stats {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.stats
}

// verdict is one message's fate, decided under the injector lock and
// executed outside it.
type verdict struct {
	reset   bool
	drop    bool
	dup     bool
	reorder bool
	corrupt int           // byte index to flip, -1 for none
	sleep   time.Duration // fixed delay + jitter
}

// decide consumes the draws for one message of the given length.
func (in *Injector) decide(n int) verdict {
	in.mu.Lock()
	defer in.mu.Unlock()
	idx := in.msgs
	in.msgs++
	in.stats.Messages++

	v := verdict{corrupt: -1}
	for _, at := range in.cfg.ResetAt {
		if at == idx && !in.fired[at] {
			in.fired[at] = true
			v.reset = true
		}
	}
	if in.cfg.Reset > 0 && in.src.Bernoulli(in.cfg.Reset) {
		v.reset = true
	}
	if in.cfg.Drop > 0 && in.src.Bernoulli(in.cfg.Drop) {
		v.drop = true
	}
	if in.cfg.Dup > 0 && in.src.Bernoulli(in.cfg.Dup) {
		v.dup = true
	}
	if in.cfg.Reorder > 0 && in.src.Bernoulli(in.cfg.Reorder) {
		v.reorder = true
	}
	if in.cfg.Corrupt > 0 && in.src.Bernoulli(in.cfg.Corrupt) && n > 0 {
		v.corrupt = in.src.Intn(n)
	}
	if in.cfg.Jitter > 0 {
		v.sleep = time.Duration(in.src.Float64() * float64(in.cfg.Jitter))
	}
	v.sleep += in.cfg.Delay

	switch {
	case v.reset:
		in.stats.Resets++
	case v.drop:
		in.stats.Dropped++
	default:
		if v.dup {
			in.stats.Duplicated++
		}
		if v.reorder {
			in.stats.Reordered++
		}
		if v.corrupt >= 0 {
			in.stats.Corrupted++
		}
	}
	if v.sleep > 0 {
		in.stats.Delayed++
	}
	return v
}

// Conn wraps a connection with fault injection on the write side. One
// Write call is one message. The read side passes through untouched —
// wrap both endpoints (or both directions) to attack both flows.
func (in *Injector) Conn(c net.Conn) net.Conn {
	return &conn{Conn: c, in: in}
}

// Dial returns a dial function for addr whose every connection is
// fault-injected: the dialing side's counterpart of Listener.
func (in *Injector) Dial(addr string) func() (net.Conn, error) {
	return func() (net.Conn, error) {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return nil, err
		}
		return in.Conn(c), nil
	}
}

// Listener wraps a listener so every accepted connection is
// fault-injected.
func (in *Injector) Listener(ln net.Listener) net.Listener {
	return &listener{Listener: ln, in: in}
}

type listener struct {
	net.Listener
	in *Injector
}

func (l *listener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return l.in.Conn(c), nil
}

// SetDeadline bounds Accept when the wrapped listener can (a
// *net.TCPListener does): embedding the interface hides the method, and
// a caller that bounds its accepts would wait forever behind the
// injector.
func (l *listener) SetDeadline(t time.Time) error {
	if dl, ok := l.Listener.(interface{ SetDeadline(time.Time) error }); ok {
		return dl.SetDeadline(t)
	}
	return os.ErrNoDeadline
}

// conn applies the injector's verdicts to writes. held buffers a
// reordered message until the next write (or Close) flushes it.
type conn struct {
	net.Conn
	in *Injector

	wmu  sync.Mutex
	held []byte
}

// errReset is what a chaos-reset write returns after closing the
// connection.
var errReset = fmt.Errorf("chaos: connection reset by injector")

func (c *conn) Write(p []byte) (int, error) {
	v := c.in.decide(len(p))
	if v.sleep > 0 {
		time.Sleep(v.sleep)
	}
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if v.reset {
		_ = c.Conn.Close()
		return 0, errReset
	}
	if v.drop {
		// Silently vanish — the caller believes the write succeeded,
		// exactly like a lost datagram.
		return len(p), nil
	}
	buf := append([]byte(nil), p...)
	if v.corrupt >= 0 && v.corrupt < len(buf) {
		buf[v.corrupt] ^= 0xff
	}
	if v.reorder {
		// Hold this message; it goes out after the next one.
		if c.held != nil {
			// Already holding one: emit the older first to bound the
			// buffer at a single message.
			if _, err := c.Conn.Write(c.held); err != nil {
				return 0, err
			}
		}
		c.held = buf
		return len(p), nil
	}
	if _, err := c.Conn.Write(buf); err != nil {
		return 0, err
	}
	if c.held != nil {
		held := c.held
		c.held = nil
		if _, err := c.Conn.Write(held); err != nil {
			return 0, err
		}
	}
	if v.dup {
		if _, err := c.Conn.Write(buf); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

func (c *conn) Close() error {
	c.wmu.Lock()
	held := c.held
	c.held = nil
	c.wmu.Unlock()
	if held != nil {
		_, _ = c.Conn.Write(held)
	}
	return c.Conn.Close()
}
