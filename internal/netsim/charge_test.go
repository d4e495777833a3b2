package netsim

import (
	"math"
	"testing"

	"repro/internal/rng"
)

// addLoop is what addN must reproduce: k successive b += m.
func addLoop(b, m float64, k int) float64 {
	for ; k > 0; k-- {
		b += m
	}
	return b
}

func checkAddN(t *testing.T, b, m float64, k int) {
	t.Helper()
	if got, want := addN(b, m, k), addLoop(b, m, k); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("addN(%v, %v, %d) = %v, the loop gives %v", b, m, k, got, want)
	}
}

// TestAddNMatchesLoop pins the closed-form charge against the loop on
// its edges, then on random sums whose addend is well below the sum,
// where the closed form does the work.
func TestAddNMatchesLoop(t *testing.T) {
	p53 := float64(1 << 53) // ulp 2
	for _, c := range []struct {
		name string
		b, m float64
		k    int
	}{
		{"half-ulp tie, even sum", p53, 1, 100},
		{"half-ulp tie, odd sum", p53 + 2, 1, 100},
		{"ulp and a half tie, even sum", p53, 3, 100},
		{"ulp and a half tie, odd sum", p53 + 2, 3, 100},
		{"m a multiple of the ulp", p53, 6, 100},
		{"crosses one binade", 1<<40 - 1<<20, 1000.3, 5000},
		{"ends on the binade's top", 1<<40 - 1<<20, 1 << 10, 1 << 10},
		{"rounds up onto the binade's top", 1<<40 - 1<<20, 1<<10 - 0x1p-15, 1 << 10},
		{"last add leaves the binade", 0x1p40 - 26*0x1p-13, 3.25 * 0x1p-13, 9},
		{"crosses several binades", 1000, 0.1, 1 << 20},
		{"m equal to b", 1, 1, 100},
		{"m above b", 0.5, 3, 100},
		{"m below half an ulp", 1 << 60, 0.1, 1000},
		{"m just below half an ulp", 1 << 60, 0x1.fffffffffffffp6, 1000},
		{"b zero", 0, 0.3, 1000},
		{"m zero", 7, 0, 1000},
		{"subnormal m below half an ulp", 1, 5e-324, 1000},
		{"subnormal m rounding to one ulp", 0x1p-970, 0x1.8p-1023, 1000},
		{"subnormal b", 0x1p-1050, 0x1p-1060, 1000},
		{"ulp subnormal", 0x1p-990, 0x1.3p-1000, 1000},
		{"overflows to +Inf", math.Nextafter(math.MaxFloat64, 0), 0x1p971, 10},
		{"k 0", 1 << 30, 0.7, 0},
		{"k 1", 1 << 30, 0.7, 1},
		{"short k", 1 << 30, 0.7, 7},
		{"+Inf b", math.Inf(1), 1, 100},
		{"-Inf b", math.Inf(-1), 1, 100},
		{"+Inf m", 1, math.Inf(1), 100},
		{"Inf plus -Inf", math.Inf(1), math.Inf(-1), 100},
		{"NaN m", 1, math.NaN(), 100},
		{"negative m", 100, -0.1, 1000},
		{"negative b", -100, 0.1, 1000},
	} {
		t.Run(c.name, func(t *testing.T) { checkAddN(t, c.b, c.m, c.k) })
	}
	src := rng.New(1)
	for i := 0; i < 20000; i++ {
		b := math.Ldexp(src.Uniform(1, 2), src.Intn(200)-100)
		m := math.Ldexp(b*src.Uniform(0.5, 1), -src.Intn(60))
		checkAddN(t, b, m, src.Intn(3000))
	}
}

// FuzzAddN checks the closed-form charge against the loop on fuzzed
// operands, and on an addend scaled below the fuzzed sum, where the
// closed form applies.
func FuzzAddN(f *testing.F) {
	f.Add(float64(1<<53), 1.0, uint16(100))
	f.Add(float64(1<<40-1<<20), 1000.3, uint16(5000))
	f.Add(1000.0, 0.1, uint16(60000))
	f.Add(1.0, 5e-324, uint16(1000))
	f.Add(math.Nextafter(math.MaxFloat64, 0), 0x1p971, uint16(10))
	f.Fuzz(func(t *testing.T, b, m float64, k uint16) {
		checkAddN(t, b, m, int(k))
		_, frac := math.Modf(math.Abs(m))
		checkAddN(t, b, math.Ldexp(b*frac, -int(k%64)), int(k))
	})
}
