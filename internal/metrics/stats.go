// Package metrics provides the statistics collection and reporting
// layer of the simulation framework: streaming moments, time-weighted
// averages, counters, time series, and textual reporters (fixed-width
// tables, CSV, ASCII plots). The histogram is obs.Histogram.
//
// The taxonomy of the reproduced paper classifies simulators by their
// output analysis support; this package is the framework's "textual
// output" and "output analyzer" implementation. Everything is plain
// data — no goroutines, no globals — so collectors can be embedded in
// any model component.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// Summary accumulates count/mean/variance/min/max of a sample stream
// using Welford's numerically stable online algorithm.
type Summary struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
	sum  float64
}

// Observe adds one sample.
func (s *Summary) Observe(x float64) {
	s.n++
	s.sum += x
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	delta := x - s.mean
	s.mean += delta / float64(s.n)
	s.m2 += delta * (x - s.mean)
}

// N returns the number of samples observed.
func (s *Summary) N() uint64 { return s.n }

// Sum returns the sum of all samples.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the sample mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Var returns the unbiased sample variance (0 with fewer than 2 samples).
func (s *Summary) Var() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// Std returns the sample standard deviation.
func (s *Summary) Std() float64 { return math.Sqrt(s.Var()) }

// Min returns the smallest observed sample (0 when empty).
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observed sample (0 when empty).
func (s *Summary) Max() float64 { return s.max }

// StdErr returns the standard error of the mean.
func (s *Summary) StdErr() float64 {
	if s.n == 0 {
		return 0
	}
	return s.Std() / math.Sqrt(float64(s.n))
}

// CI95 returns the half-width of the normal-approximation 95%
// confidence interval for the mean.
func (s *Summary) CI95() float64 { return 1.96 * s.StdErr() }

// String renders "mean ± ci (n=N, min..max)".
func (s *Summary) String() string {
	return fmt.Sprintf("%.4g ± %.2g (n=%d, %.4g..%.4g)", s.Mean(), s.CI95(), s.n, s.min, s.max)
}

// TimeWeighted tracks the time-average of a piecewise-constant signal,
// e.g. queue length or number of busy servers. Set must be called with
// nondecreasing timestamps.
type TimeWeighted struct {
	started  bool
	startT   float64
	lastT    float64
	lastV    float64
	area     float64
	min, max float64
}

// Set records that the signal takes value v from time t onward.
func (tw *TimeWeighted) Set(t, v float64) {
	if !tw.started {
		tw.started = true
		tw.startT, tw.lastT, tw.lastV = t, t, v
		tw.min, tw.max = v, v
		return
	}
	if t < tw.lastT {
		panic(fmt.Sprintf("metrics: TimeWeighted.Set with decreasing time %v < %v", t, tw.lastT))
	}
	tw.area += tw.lastV * (t - tw.lastT)
	tw.lastT, tw.lastV = t, v
	if v < tw.min {
		tw.min = v
	}
	if v > tw.max {
		tw.max = v
	}
}

// Add shifts the current value by delta at time t (convenient for
// queue-length style counters).
func (tw *TimeWeighted) Add(t, delta float64) { tw.Set(t, tw.lastV+delta) }

// Mean returns the time average of the signal from the first Set to
// time t.
func (tw *TimeWeighted) Mean(t float64) float64 {
	if !tw.started || t <= tw.startT {
		return 0
	}
	area := tw.area + tw.lastV*(t-tw.lastT)
	return area / (t - tw.startT)
}

// Value returns the current value of the signal.
func (tw *TimeWeighted) Value() float64 { return tw.lastV }

// Min returns the minimum value the signal has taken.
func (tw *TimeWeighted) Min() float64 { return tw.min }

// Max returns the maximum value the signal has taken.
func (tw *TimeWeighted) Max() float64 { return tw.max }

// Series is an append-only (x, y) sequence — a simulation time series.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Append adds one point; x values are expected nondecreasing but this
// is not enforced (benchmark sweeps append by parameter value).
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// YAt returns the y for the first point with X == x (exact match),
// or (0, false).
func (s *Series) YAt(x float64) (float64, bool) {
	for i, xv := range s.X {
		if xv == x {
			return s.Y[i], true
		}
	}
	return 0, false
}

// Percentile computes the exact p-quantile (0..1) of a sample slice
// using linear interpolation between order statistics; it sorts a copy.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := make([]float64, len(samples))
	copy(sorted, samples)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := p * float64(len(sorted)-1)
	i := int(pos)
	frac := pos - float64(i)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i]*(1-frac) + sorted[i+1]*frac
}
