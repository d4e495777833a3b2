package obs

import (
	"fmt"
	"math"
	"math/bits"
)

// Histogram is an allocation-free log-bucketed histogram of
// non-negative int64 samples (typically nanoseconds). Bucket i holds
// samples whose bit length is i, i.e. values in [2^(i-1), 2^i); bucket
// 0 holds exact zeros. Power-of-two buckets bound the relative error
// of any quantile estimate at 2x while keeping Observe branch-free and
// the whole structure a fixed 65-counter array — the shape HDR-style
// recorders use when allocation on the record path is forbidden.
//
// The zero Histogram is ready to use. Not synchronized: single writer,
// merge at export time.
type Histogram struct {
	counts [65]uint64
	n      uint64
	sum    int64
	min    int64
	max    int64
}

// Observe adds one sample. Negative samples are clamped to zero: they
// can only arise from wall-clock jitter and must not corrupt buckets.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.n == 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.n++
	h.sum += v
	h.counts[bits.Len64(uint64(v))]++
}

// Count returns the number of samples observed.
func (h *Histogram) Count() uint64 { return h.n }

// Sum returns the sum of all samples.
func (h *Histogram) Sum() int64 { return h.sum }

// Min returns the smallest sample (0 when empty).
func (h *Histogram) Min() int64 {
	if h.n == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest sample (0 when empty).
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.n == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.n)
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1) by
// linear interpolation inside the covering bucket, clamped to the
// observed min/max so estimates never leave the sample range.
func (h *Histogram) Quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	if q <= 0 {
		return float64(h.min)
	}
	if q >= 1 {
		return float64(h.max)
	}
	target := q * float64(h.n)
	cum := 0.0
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		fc := float64(c)
		if cum+fc < target {
			cum += fc
			continue
		}
		// Bucket b covers [lo, hi): interpolate by rank within it.
		var lo, hi float64
		if b == 0 {
			lo, hi = 0, 1
		} else {
			lo = math.Ldexp(1, b-1)
			hi = math.Ldexp(1, b)
		}
		v := lo + (hi-lo)*(target-cum)/fc
		if v < float64(h.min) {
			v = float64(h.min)
		}
		if v > float64(h.max) {
			v = float64(h.max)
		}
		return v
	}
	return float64(h.max)
}

// Merge adds every sample of o into h.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.n == 0 {
		return
	}
	if h.n == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.n += o.n
	h.sum += o.sum
	for i, c := range o.counts {
		h.counts[i] += c
	}
}

// Buckets calls fn for every non-empty bucket with the bucket's lower
// bound and count, in ascending order. Bucket 0 reports lower bound 0.
func (h *Histogram) Buckets(fn func(lowerBound int64, count uint64)) {
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		lo := int64(0)
		if b > 0 {
			lo = int64(1) << (b - 1)
		}
		fn(lo, c)
	}
}

// String renders a compact summary with nanosecond-scaled units:
// "n=12034 mean=1.2µs p50=980ns p90=2.1µs p99=4.0µs max=12µs".
func (h *Histogram) String() string {
	if h.n == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%d mean=%s p50=%s p90=%s p99=%s max=%s",
		h.n, fmtNs(h.Mean()), fmtNs(h.Quantile(0.5)), fmtNs(h.Quantile(0.9)),
		fmtNs(h.Quantile(0.99)), fmtNs(float64(h.max)))
}

// fmtNs renders a nanosecond quantity at a human scale.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2gs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.3gms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.3gµs", ns/1e3)
	default:
		return fmt.Sprintf("%.3gns", ns)
	}
}
