package distsim

import (
	"fmt"
	"net"
	"time"

	"repro/internal/rng"
)

// Backoff computes capped exponential retry delays with deterministic
// jitter: the jitter fraction is drawn from a seeded rng.Source stream
// instead of the global clock, so a retry schedule — like everything
// else in the framework — replays identically for a given seed. The
// jitter still does its real job (decorrelating a thundering herd of
// workers, who each derive a different stream from their LP set).
type Backoff struct {
	Base   time.Duration // first delay (default 50ms)
	Max    time.Duration // delay cap (default 5s)
	Factor float64       // growth per attempt (default 2)
	Jitter float64       // uniform extra fraction of the delay, in [0, Jitter) (default 0.25)

	src *rng.Source
}

// newBackoff builds a Backoff with defaults filled in, jittered by the
// stream named name derived from seed.
func newBackoff(base time.Duration, seed uint64, name string) *Backoff {
	b := &Backoff{Base: base, src: rng.New(seed).Derive("backoff:" + name)}
	if b.Base <= 0 {
		b.Base = 50 * time.Millisecond
	}
	b.Max = 5 * time.Second
	b.Factor = 2
	b.Jitter = 0.25
	return b
}

// Delay returns the pause before retry attempt (0-based), capped at
// Max, plus the deterministic jitter draw.
func (b *Backoff) Delay(attempt int) time.Duration {
	d := float64(b.Base)
	for i := 0; i < attempt; i++ {
		d *= b.Factor
		if d >= float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	if b.Jitter > 0 && b.src != nil {
		d += d * b.Jitter * b.src.Float64()
	}
	if d > float64(b.Max) {
		d = float64(b.Max)
	}
	return time.Duration(d)
}

// dialRetry attempts dial up to attempts times, sleeping the backoff
// delay between failures (counted into stats.BackoffNs when stats is
// set). It returns the first successful connection or the last error.
// attempts <= 0 means a single attempt.
func dialRetry(dial func() (net.Conn, error), attempts int, b *Backoff, stats *WireStats) (net.Conn, error) {
	if attempts <= 0 {
		attempts = 1
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			d := b.Delay(a - 1)
			if stats != nil {
				stats.BackoffNs.Add(uint64(d))
			}
			time.Sleep(d)
		}
		conn, err := dial()
		if err == nil {
			return conn, nil
		}
		if isFatal(err) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("distsim: dial failed after %d attempts: %w", attempts, lastErr)
}
