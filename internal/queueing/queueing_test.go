package queueing

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func near(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMM1KnownValues(t *testing.T) {
	// λ=0.5, μ=1: ρ=0.5, L=1, W=2, Lq=0.5, Wq=1.
	q, err := NewMM1(0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !near(q.Rho, 0.5, 1e-12) || !near(q.L, 1, 1e-12) || !near(q.W, 2, 1e-12) ||
		!near(q.Lq, 0.5, 1e-12) || !near(q.Wq, 1, 1e-12) {
		t.Fatalf("MM1 = %+v", q)
	}
}

func TestMM1LittlesLaw(t *testing.T) {
	q, _ := NewMM1(0.7, 1)
	if !near(q.L, 0.7*q.W, 1e-12) {
		t.Fatal("L != λW")
	}
	if !near(q.Lq, 0.7*q.Wq, 1e-12) {
		t.Fatal("Lq != λWq")
	}
}

func TestMM1Unstable(t *testing.T) {
	if _, err := NewMM1(1, 1); !errors.Is(err, ErrUnstable) {
		t.Fatalf("err = %v", err)
	}
	if _, err := NewMM1(2, 1); !errors.Is(err, ErrUnstable) {
		t.Fatalf("err = %v", err)
	}
	if _, err := NewMM1(0, 1); err == nil || errors.Is(err, ErrUnstable) {
		t.Fatalf("err = %v", err)
	}
}

func TestMMCReducesToMM1(t *testing.T) {
	m1, _ := NewMM1(0.6, 1)
	mc, err := NewMMC(0.6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !near(mc.W, m1.W, 1e-9) || !near(mc.L, m1.L, 1e-9) || !near(mc.Lq, m1.Lq, 1e-9) {
		t.Fatalf("MMC(c=1) %+v != MM1 %+v", mc, m1)
	}
}

func TestMMCKnownValue(t *testing.T) {
	// Classic textbook case: λ=2, μ=1.5, c=2 → a=4/3, ρ=2/3.
	q, err := NewMMC(2, 1.5, 2)
	if err != nil {
		t.Fatal(err)
	}
	// P0 = (1 + a + a²/(2(1-ρ)))⁻¹ = (1 + 4/3 + (16/9)/(2/3 * 2))⁻¹
	a := 4.0 / 3.0
	p0 := 1 / (1 + a + a*a/2/(1-2.0/3.0))
	if !near(q.P0, p0, 1e-9) {
		t.Fatalf("P0 = %v, want %v", q.P0, p0)
	}
	// Little's law consistency.
	if !near(q.L, 2*q.W, 1e-9) {
		t.Fatal("MMC violates Little's law")
	}
}

func TestMMCMoreServersLessWait(t *testing.T) {
	prev := math.Inf(1)
	for c := 1; c <= 8; c++ {
		q, err := NewMMC(0.9, 1, c)
		if err != nil {
			t.Fatal(err)
		}
		if q.Wq >= prev {
			t.Fatalf("Wq not decreasing in c: c=%d Wq=%v prev=%v", c, q.Wq, prev)
		}
		prev = q.Wq
	}
}

func TestMG1ExponentialMatchesMM1(t *testing.T) {
	// Exponential service: vs = es².
	lambda, mu := 0.8, 1.0
	m1, _ := NewMM1(lambda, mu)
	g1, err := NewMG1(lambda, 1/mu, 1/(mu*mu))
	if err != nil {
		t.Fatal(err)
	}
	if !near(g1.W, m1.W, 1e-9) || !near(g1.Lq, m1.Lq, 1e-9) {
		t.Fatalf("MG1(exp) %+v != MM1 %+v", g1, m1)
	}
}

func TestMD1HalfTheQueueOfMM1(t *testing.T) {
	// Known result: M/D/1 waiting time is half the M/M/1 waiting time.
	lambda, mu := 0.8, 1.0
	m1, _ := NewMM1(lambda, mu)
	d1, err := NewMD1(lambda, 1/mu)
	if err != nil {
		t.Fatal(err)
	}
	if !near(d1.Wq, m1.Wq/2, 1e-9) {
		t.Fatalf("MD1 Wq = %v, want %v", d1.Wq, m1.Wq/2)
	}
}

func TestMG1Unstable(t *testing.T) {
	if _, err := NewMG1(1, 1, 0); !errors.Is(err, ErrUnstable) {
		t.Fatalf("err = %v", err)
	}
}

func TestErlangB(t *testing.T) {
	// B(a, 0) = 1 for a > 0; B decreases with servers.
	if b := ErlangB(5, 0); b != 1 {
		t.Fatalf("ErlangB(5,0) = %v", b)
	}
	prev := 1.0
	for c := 1; c <= 10; c++ {
		b := ErlangB(5, c)
		if b >= prev || b < 0 {
			t.Fatalf("ErlangB not decreasing at c=%d: %v >= %v", c, b, prev)
		}
		prev = b
	}
	// Textbook value: B(1, 1) = 0.5.
	if b := ErlangB(1, 1); !near(b, 0.5, 1e-12) {
		t.Fatalf("ErlangB(1,1) = %v", b)
	}
}

func TestErlangCMatchesMMC(t *testing.T) {
	lambda, mu, c := 2.0, 1.5, 2
	q, _ := NewMMC(lambda, mu, c)
	ec := ErlangC(lambda/mu, c)
	if !near(ec, q.PWait, 1e-9) {
		t.Fatalf("ErlangC = %v, MMC PWait = %v", ec, q.PWait)
	}
	if ErlangC(3, 2) != 1 {
		t.Fatal("unstable ErlangC != 1")
	}
}

func TestJacksonTandem(t *testing.T) {
	// Two M/M/1 stations in tandem: λ=0.5 through both, μ=1 each.
	nodes := []JacksonNode{
		{Name: "a", Mu: 1, Servers: 1, Lambda0: 0.5, Routing: []Route{{To: 1, P: 1}}},
		{Name: "b", Mu: 1, Servers: 1},
	}
	res, err := SolveJackson(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.Lambda[0], 0.5, 1e-9) || !near(res.Lambda[1], 0.5, 1e-9) {
		t.Fatalf("lambdas = %v", res.Lambda)
	}
	m1, _ := NewMM1(0.5, 1)
	if !near(res.L, 2*m1.L, 1e-6) {
		t.Fatalf("network L = %v, want %v", res.L, 2*m1.L)
	}
	if !near(res.W, 2*m1.W, 1e-6) {
		t.Fatalf("network W = %v, want %v", res.W, 2*m1.W)
	}
}

func TestJacksonFeedback(t *testing.T) {
	// Single node with feedback p=0.5: effective λ = λ0/(1-p) = 1.
	nodes := []JacksonNode{
		{Name: "n", Mu: 3, Servers: 1, Lambda0: 0.5, Routing: []Route{{To: 0, P: 0.5}}},
	}
	res, err := SolveJackson(nodes)
	if err != nil {
		t.Fatal(err)
	}
	if !near(res.Lambda[0], 1, 1e-9) {
		t.Fatalf("effective lambda = %v, want 1", res.Lambda[0])
	}
}

func TestJacksonUnstableNode(t *testing.T) {
	nodes := []JacksonNode{
		{Name: "hot", Mu: 1, Servers: 1, Lambda0: 2},
	}
	if _, err := SolveJackson(nodes); err == nil {
		t.Fatal("no error for saturated node")
	}
	if _, err := SolveJackson(nil); err == nil {
		t.Fatal("no error for empty network")
	}
}

func TestQuickMM1Monotone(t *testing.T) {
	// Property: W increases with λ for fixed μ.
	f := func(a, b uint8) bool {
		l1 := float64(a%99+1) / 100 // 0.01..0.99
		l2 := float64(b%99+1) / 100
		if l1 > l2 {
			l1, l2 = l2, l1
		}
		if l1 == l2 {
			return true
		}
		q1, err1 := NewMM1(l1, 1)
		q2, err2 := NewMM1(l2, 1)
		if err1 != nil || err2 != nil {
			return false
		}
		return q1.W < q2.W && q1.L < q2.L
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMG1VarianceIncreasesWait(t *testing.T) {
	// Property: for fixed mean service, more variance → longer Wq.
	f := func(v1Raw, v2Raw uint8) bool {
		v1 := float64(v1Raw) / 64
		v2 := float64(v2Raw) / 64
		if v1 > v2 {
			v1, v2 = v2, v1
		}
		if v1 == v2 {
			return true
		}
		q1, err1 := NewMG1(0.5, 1, v1)
		q2, err2 := NewMG1(0.5, 1, v2)
		if err1 != nil || err2 != nil {
			return false
		}
		return q1.Wq < q2.Wq
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
