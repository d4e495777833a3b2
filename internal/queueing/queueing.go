// Package queueing provides closed-form results from queueing theory.
//
// The reproduced paper argues (Section 5) that queueing models are the
// right formalism for validating the stochastic behavior of LSDS
// simulators: "the formalism provided by the queuing models is
// important for the definition and validation of the simulation
// stochastic models". This package supplies the analytic side of that
// comparison — M/M/1, M/M/c, M/D/1, M/G/1 (Pollaczek–Khinchine),
// Erlang B/C, and open Jackson networks — and the validation
// experiment (E6) checks the CPUs and links the studies run against it.
//
// Conventions: lambda is the arrival rate, mu the per-server service
// rate, c the server count, rho the offered utilization. All waits W
// are sojourn (response) times; Wq are queueing delays excluding
// service.
package queueing

import (
	"errors"
	"fmt"
	"math"
)

// ErrUnstable is returned when the offered load makes the queue
// unstable (rho >= 1 for infinite-buffer systems).
var ErrUnstable = errors.New("queueing: offered load is unstable (rho >= 1)")

// MM1 holds the steady-state measures of an M/M/1 queue.
type MM1 struct {
	Rho float64 // utilization λ/μ
	L   float64 // mean number in system
	Lq  float64 // mean number in queue
	W   float64 // mean time in system
	Wq  float64 // mean waiting time
}

// NewMM1 computes M/M/1 steady-state measures. It returns ErrUnstable
// when lambda >= mu, and an error on non-positive rates.
func NewMM1(lambda, mu float64) (MM1, error) {
	if lambda <= 0 || mu <= 0 {
		return MM1{}, fmt.Errorf("queueing: MM1 requires positive rates, got lambda=%v mu=%v", lambda, mu)
	}
	rho := lambda / mu
	if rho >= 1 {
		return MM1{}, ErrUnstable
	}
	l := rho / (1 - rho)
	w := 1 / (mu - lambda)
	return MM1{
		Rho: rho,
		L:   l,
		Lq:  rho * rho / (1 - rho),
		W:   w,
		Wq:  rho / (mu - lambda),
	}, nil
}

// MMC holds the steady-state measures of an M/M/c queue.
type MMC struct {
	C     int
	Rho   float64 // per-server utilization λ/(cμ)
	P0    float64 // probability of an empty system
	PWait float64 // Erlang-C probability an arrival waits
	L     float64
	Lq    float64
	W     float64
	Wq    float64
}

// NewMMC computes M/M/c steady-state measures.
func NewMMC(lambda, mu float64, c int) (MMC, error) {
	if lambda <= 0 || mu <= 0 || c <= 0 {
		return MMC{}, fmt.Errorf("queueing: MMC requires positive parameters, got lambda=%v mu=%v c=%d", lambda, mu, c)
	}
	a := lambda / mu // offered load in Erlangs
	rho := a / float64(c)
	if rho >= 1 {
		return MMC{}, ErrUnstable
	}
	// P0 via the standard sum; compute terms iteratively for stability.
	sum := 0.0
	term := 1.0 // a^0/0!
	for k := 0; k < c; k++ {
		sum += term
		term *= a / float64(k+1)
	}
	// term is now a^c/c!
	last := term / (1 - rho)
	p0 := 1 / (sum + last)
	pw := last * p0 // Erlang C
	lq := pw * rho / (1 - rho)
	wq := lq / lambda
	w := wq + 1/mu
	return MMC{
		C:     c,
		Rho:   rho,
		P0:    p0,
		PWait: pw,
		L:     lq + a,
		Lq:    lq,
		W:     w,
		Wq:    wq,
	}, nil
}

// MG1 holds the steady-state measures of an M/G/1 queue via the
// Pollaczek–Khinchine formula; the service distribution enters only
// through its mean and variance.
type MG1 struct {
	Rho float64
	L   float64
	Lq  float64
	W   float64
	Wq  float64
}

// NewMG1 computes M/G/1 measures for service time with mean es and
// variance vs.
func NewMG1(lambda, es, vs float64) (MG1, error) {
	if lambda <= 0 || es <= 0 || vs < 0 {
		return MG1{}, fmt.Errorf("queueing: MG1 requires lambda>0, es>0, vs>=0")
	}
	rho := lambda * es
	if rho >= 1 {
		return MG1{}, ErrUnstable
	}
	// P-K: Lq = (λ²·E[S²]... expressed with variance:
	// Wq = λ(σ² + E[S]²) / (2(1-ρ))
	wq := lambda * (vs + es*es) / (2 * (1 - rho))
	w := wq + es
	return MG1{Rho: rho, W: w, Wq: wq, L: lambda * w, Lq: lambda * wq}, nil
}

// NewMD1 computes M/D/1 measures (deterministic service of length d):
// the zero-variance special case of M/G/1.
func NewMD1(lambda, d float64) (MG1, error) { return NewMG1(lambda, d, 0) }

// ErlangB returns the Erlang-B blocking probability for offered load a
// Erlangs on c servers with no queue, computed by the stable recurrence.
func ErlangB(a float64, c int) float64 {
	if a <= 0 || c < 0 {
		return 0
	}
	b := 1.0
	for k := 1; k <= c; k++ {
		b = a * b / (float64(k) + a*b)
	}
	return b
}

// ErlangC returns the probability of waiting in an M/M/c queue with
// offered load a Erlangs; it returns 1 when the system is unstable.
func ErlangC(a float64, c int) float64 {
	if float64(c) <= a {
		return 1
	}
	eb := ErlangB(a, c)
	rho := a / float64(c)
	return eb / (1 - rho*(1-eb))
}

// JacksonNode describes one station of an open Jackson network.
type JacksonNode struct {
	Name    string
	Mu      float64 // service rate per server
	Servers int
	// External arrival rate into this node.
	Lambda0 float64
	// Routing lists where a job leaving this node goes next; the
	// remaining probability departs the network.
	Routing []Route
}

// Route sends a job leaving its node to node To with probability P.
type Route struct {
	To int
	P  float64
}

// JacksonResult holds per-node effective rates and measures.
type JacksonResult struct {
	Lambda []float64 // effective arrival rates (traffic equations)
	Nodes  []MMC     // per-node M/M/c measures at effective rates
	L      float64   // network mean population
	W      float64   // network mean sojourn (Little, over external λ)
}

// SolveJackson solves the traffic equations λ = λ0 + λP by fixed-point
// iteration and evaluates each node as M/M/c. It returns ErrUnstable
// if any node saturates.
func SolveJackson(nodes []JacksonNode) (JacksonResult, error) {
	n := len(nodes)
	if n == 0 {
		return JacksonResult{}, errors.New("queueing: SolveJackson with no nodes")
	}
	lambda := make([]float64, n)
	for i := range lambda {
		lambda[i] = nodes[i].Lambda0
	}
	for iter := 0; iter < 10000; iter++ {
		next := make([]float64, n)
		for i := range next {
			next[i] = nodes[i].Lambda0
		}
		for j, node := range nodes {
			for _, r := range node.Routing {
				if r.To < 0 || r.To >= n || r.P < 0 {
					return JacksonResult{}, fmt.Errorf("queueing: bad routing %d->%d p=%v", j, r.To, r.P)
				}
				next[r.To] += lambda[j] * r.P
			}
		}
		delta := 0.0
		for i := range next {
			delta += math.Abs(next[i] - lambda[i])
		}
		lambda = next
		if delta < 1e-12 {
			break
		}
	}
	res := JacksonResult{Lambda: lambda, Nodes: make([]MMC, n)}
	extLambda := 0.0
	for i, node := range nodes {
		extLambda += node.Lambda0
		m, err := NewMMC(lambda[i], node.Mu, node.Servers)
		if err != nil {
			return JacksonResult{}, fmt.Errorf("queueing: node %q: %w", node.Name, err)
		}
		res.Nodes[i] = m
		res.L += m.L
	}
	if extLambda > 0 {
		res.W = res.L / extLambda
	}
	return res, nil
}
