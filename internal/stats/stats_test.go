package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestSummaryMeanMax(t *testing.T) {
	var s Summary
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(x)
	}
	if s.N() != 8 {
		t.Fatalf("N = %d", s.N())
	}
	if got := s.Mean(); math.Abs(got-5) > 1e-9 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if s.Max() != 9 {
		t.Fatalf("Max = %v, want 9", s.Max())
	}
}

func TestSummaryMatchesDirectComputation(t *testing.T) {
	f := func(xs []float64) bool {
		var s Summary
		sum := 0.0
		ok := true
		for _, x := range xs {
			// Constrain inputs to a sane range to avoid float blowups.
			x = math.Mod(x, 1e6)
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			s.Add(x)
			sum += x
		}
		if s.N() > 0 {
			mean := sum / float64(s.N())
			ok = math.Abs(s.Mean()-mean) < 1e-6*(1+math.Abs(mean))
		}
		return ok
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMeanExact(t *testing.T) {
	h := NewHistogram()
	for _, d := range []time.Duration{time.Millisecond, 3 * time.Millisecond, 5 * time.Millisecond} {
		h.Observe(d)
	}
	if got := h.Mean(); got != 3*time.Millisecond {
		t.Fatalf("Mean = %v, want 3ms", got)
	}
	if h.Max() != 5*time.Millisecond {
		t.Fatalf("Max = %v, want 5ms", h.Max())
	}
}

func TestHistogramQuantileApproximation(t *testing.T) {
	h := NewHistogram()
	var samples []time.Duration
	for i := 1; i <= 1000; i++ {
		d := time.Duration(i) * time.Millisecond
		h.Observe(d)
		samples = append(samples, d)
	}
	exact := percentiles(samples, 0.5, 0.99)
	for i, q := range []float64{0.5, 0.99} {
		got := h.Quantile(q)
		want := exact[i]
		// Log buckets at 30/decade: ~8% resolution.
		ratio := float64(got) / float64(want)
		if ratio < 0.85 || ratio > 1.15 {
			t.Errorf("Quantile(%v) = %v, want ≈%v", q, got, want)
		}
	}
}

func TestHistogramQuantileEdges(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile != 0")
	}
	h.Observe(10 * time.Millisecond)
	if got := h.Quantile(0); got != 10*time.Millisecond {
		t.Fatalf("Quantile(0) = %v", got)
	}
	if got := h.Quantile(1); got != 10*time.Millisecond {
		t.Fatalf("Quantile(1) = %v", got)
	}
}

func TestHistogramCDFMonotone(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 500; i++ {
		h.Observe(time.Duration(1+i*i) * time.Microsecond)
	}
	cdf := h.CDF()
	if len(cdf) == 0 {
		t.Fatal("empty CDF")
	}
	prev := CDFPoint{}
	for _, p := range cdf {
		if p.Latency < prev.Latency || p.Fraction < prev.Fraction {
			t.Fatalf("CDF not monotone at %+v after %+v", p, prev)
		}
		prev = p
	}
	if got := cdf[len(cdf)-1].Fraction; got != 1.0 {
		t.Fatalf("CDF ends at %v, want 1.0", got)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	a.Observe(time.Millisecond)
	b.Observe(3 * time.Millisecond)
	b.Observe(5 * time.Millisecond)
	a.Merge(b)
	if a.N() != 3 || a.Mean() != 3*time.Millisecond {
		t.Fatalf("merged N=%d mean=%v", a.N(), a.Mean())
	}
	if a.Max() != 5*time.Millisecond {
		t.Fatalf("merged Max = %v, want 5ms", a.Max())
	}
}

func TestFormatDuration(t *testing.T) {
	tests := []struct {
		d    time.Duration
		want string
	}{
		{0, "0"},
		{500 * time.Nanosecond, "0.5µs"},
		{670 * time.Microsecond, "670.0µs"},
		{93 * time.Millisecond, "93.0ms"},
		{2300 * time.Millisecond, "2.30s"},
	}
	for _, tt := range tests {
		if got := FormatDuration(tt.d); got != tt.want {
			t.Errorf("FormatDuration(%v) = %q, want %q", tt.d, got, tt.want)
		}
	}
}

// percentiles reports quantiles of a latency sample exactly: the reference
// the histogram's bucketed approximation is checked against.
func percentiles(samples []time.Duration, qs ...float64) []time.Duration {
	sorted := append([]time.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	out := make([]time.Duration, len(qs))
	for i, q := range qs {
		out[i] = sorted[min(int(q*float64(len(sorted))), len(sorted)-1)]
	}
	return out
}
