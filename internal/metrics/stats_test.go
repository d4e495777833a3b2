package metrics

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSummaryBasics(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Var() != 0 || s.N() != 0 {
		t.Fatal("empty summary not zero")
	}
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Observe(v)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if s.Mean() != 5 {
		t.Fatalf("Mean = %v, want 5", s.Mean())
	}
	// Population variance is 4; unbiased sample variance = 32/7.
	if math.Abs(s.Var()-32.0/7.0) > 1e-12 {
		t.Fatalf("Var = %v, want %v", s.Var(), 32.0/7.0)
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("Min/Max = %v/%v", s.Min(), s.Max())
	}
	if s.Sum() != 40 {
		t.Fatalf("Sum = %v", s.Sum())
	}
	if !strings.Contains(s.String(), "n=8") {
		t.Fatalf("String() = %q", s.String())
	}
}

func TestSummarySingleSample(t *testing.T) {
	var s Summary
	s.Observe(3)
	if s.Var() != 0 || s.Std() != 0 || s.Mean() != 3 {
		t.Fatal("single-sample stats wrong")
	}
	if s.Min() != 3 || s.Max() != 3 {
		t.Fatal("single-sample min/max wrong")
	}
}

func TestQuickSummaryMeanWithinMinMax(t *testing.T) {
	f := func(vals []float64) bool {
		var s Summary
		count := 0
		for _, v := range vals {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			// Bound magnitudes: with values near ±MaxFloat64 the
			// intermediate sums overflow, which is not the property
			// under test.
			s.Observe(math.Mod(v, 1e12))
			count++
		}
		if count == 0 {
			return true
		}
		return s.Mean() >= s.Min()-1e-9 && s.Mean() <= s.Max()+1e-9 && s.Var() >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestTimeWeighted(t *testing.T) {
	var tw TimeWeighted
	tw.Set(0, 0)
	tw.Set(10, 2) // value 0 for [0,10)
	tw.Set(15, 4) // value 2 for [10,15)
	// mean over [0,20]: (0*10 + 2*5 + 4*5)/20 = 30/20
	if m := tw.Mean(20); math.Abs(m-1.5) > 1e-12 {
		t.Fatalf("Mean = %v, want 1.5", m)
	}
	if tw.Value() != 4 || tw.Min() != 0 || tw.Max() != 4 {
		t.Fatal("value/min/max wrong")
	}
	tw.Add(20, -3)
	if tw.Value() != 1 {
		t.Fatalf("Add: value = %v", tw.Value())
	}
}

func TestTimeWeightedDecreasingTimePanics(t *testing.T) {
	var tw TimeWeighted
	tw.Set(5, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on decreasing time")
		}
	}()
	tw.Set(4, 2)
}

func TestTimeWeightedEmpty(t *testing.T) {
	var tw TimeWeighted
	if tw.Mean(100) != 0 {
		t.Fatal("empty mean not 0")
	}
}

func TestPercentile(t *testing.T) {
	samples := []float64{5, 1, 3, 2, 4}
	if p := Percentile(samples, 0.5); p != 3 {
		t.Fatalf("median = %v", p)
	}
	if p := Percentile(samples, 0); p != 1 {
		t.Fatalf("p0 = %v", p)
	}
	if p := Percentile(samples, 1); p != 5 {
		t.Fatalf("p100 = %v", p)
	}
	if p := Percentile(samples, 0.25); p != 2 {
		t.Fatalf("p25 = %v", p)
	}
	if p := Percentile(nil, 0.5); p != 0 {
		t.Fatalf("empty percentile = %v", p)
	}
	// Original slice must not be reordered.
	if samples[0] != 5 {
		t.Fatal("Percentile mutated input")
	}
}

func TestSeries(t *testing.T) {
	var s Series
	s.Name = "test"
	s.Append(1, 10)
	s.Append(2, 20)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if y, ok := s.YAt(2); !ok || y != 20 {
		t.Fatalf("YAt(2) = %v, %v", y, ok)
	}
	if _, ok := s.YAt(3); ok {
		t.Fatal("YAt(3) found")
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("My Title", "name", "value")
	tb.AddRow("alpha", "1")
	tb.AddRowf("beta", 2.5)
	out := tb.String()
	for _, want := range []string{"My Title", "name", "alpha", "beta", "2.5", "---"} {
		if !strings.Contains(out, want) {
			t.Fatalf("table output missing %q:\n%s", want, out)
		}
	}
}

// A non-ASCII cell pads by runes, as a terminal shows it, so the
// columns after "window wall µs" and "± 95%" line up.
func TestTableAlignsNonASCII(t *testing.T) {
	tb := NewTable("", "metric", "value", "ci")
	tb.AddRow("window wall µs", "12.5", "a")
	tb.AddRow("windows", "40", "± 95%")
	want := "" +
		"metric          value  ci\n" +
		"--------------  -----  -----\n" +
		"window wall µs  12.5   a\n" +
		"windows         40     ± 95%\n"
	if got := tb.String(); got != want {
		t.Fatalf("table:\n%s\nwant:\n%s", got, want)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("", "a", "b")
	tb.AddRow("x,y", `say "hi"`)
	var b strings.Builder
	if err := tb.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `"x,y"`) {
		t.Fatalf("comma not quoted: %q", out)
	}
	if !strings.Contains(out, `"say ""hi"""`) {
		t.Fatalf("quotes not escaped: %q", out)
	}
}

func TestAsciiPlot(t *testing.T) {
	s1 := &Series{Name: "up"}
	s2 := &Series{Name: "down"}
	for i := 0; i < 10; i++ {
		s1.Append(float64(i), float64(i))
		s2.Append(float64(i), float64(10-i))
	}
	out := AsciiPlot("trend", 40, 10, s1, s2)
	for _, want := range []string{"trend", "* = up", "o = down"} {
		if !strings.Contains(out, want) {
			t.Fatalf("plot missing %q:\n%s", want, out)
		}
	}
	if empty := AsciiPlot("none", 40, 10); !strings.Contains(empty, "no data") {
		t.Fatal("empty plot not flagged")
	}
}
