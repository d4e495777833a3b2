package main

import "sort"

// summary is one end-to-end metric of one workload over the timed
// rounds: the median with its quartiles, and the raw values beside it.
type summary struct {
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
	N      int       `json:"n"`
	Values []float64 `json:"values"`
}

func summarize(values []float64) summary {
	s := summary{N: len(values), Values: values}
	s.Q1, s.Median, s.Q3 = quartiles(values)
	return s
}

// spread is the distance between the quartiles as a share of the
// median: the run-to-run noise a bound has to be read against.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

// fast is the quartile on the metric's good side: what `lsbench bench`
// reports to the driver. Whatever else runs on the host only ever slows
// a round down, so of one invocation's rounds the fast quarter is
// nearest to the program's own cost, and an invocation that overlaps a
// slow spell of the host still reports the same value as long as a
// quarter of its rounds escaped it.
func (s summary) fast(better string) float64 {
	if better == "higher" {
		return s.Q3
	}
	return s.Q1
}

// quartiles returns the three cut points the way Python's
// statistics.quantiles(values, n=4) does (the exclusive method), since
// that is what the driver computes spreads with. A single value is its
// own quartiles; no values give zeros.
func quartiles(values []float64) (q1, q2, q3 float64) {
	n := len(values)
	if n == 0 {
		return 0, 0, 0
	}
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	if n == 1 {
		return data[0], data[0], data[0]
	}
	cut := func(i int) float64 {
		j, delta := i*(n+1)/4, float64(i*(n+1)%4)
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		return (data[j-1]*(4-delta) + data[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(values []float64) float64 {
	_, m, _ := quartiles(values)
	return m
}
