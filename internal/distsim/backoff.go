package distsim

import (
	"time"

	"repro/internal/rng"
)

// backoff computes a worker's retry pauses: backoffBase doubling per
// attempt up to backoffCap, plus up to a quarter of it in jitter. The
// jitter is drawn from a seeded rng.Source stream instead of the wall
// clock, so a retry schedule — like everything else in the framework —
// replays identically for a given seed, and still does its real job:
// decorrelating a thundering herd of workers, who each seed their stream
// with their LP set.
type backoff struct{ src *rng.Source }

func newBackoff(seed uint64) *backoff {
	return &backoff{src: rng.New(seed).Derive("backoff:worker")}
}

// delay returns the pause before retry attempt (0-based).
func (b *backoff) delay(attempt int) time.Duration {
	d := float64(backoffBase)
	for i := 0; i < attempt && d < float64(backoffCap); i++ {
		d *= 2
	}
	d += d * 0.25 * b.src.Float64()
	return time.Duration(min(d, float64(backoffCap)))
}
