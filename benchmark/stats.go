package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation between
// closest ranks (the "inclusive" method: q=0 is the minimum, q=1 the
// maximum). It returns 0 for an empty sample.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if hi >= n {
		hi = n - 1
	}
	frac := pos - float64(lo)
	return sorted[lo] + (sorted[hi]-sorted[lo])*frac
}

// median sorts a copy of xs and returns its middle value.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailOdds are the candidate tail percentiles as "one sample in k lies
// beyond it": p90, p99, p99.9, p99.99.
var tailOdds = []int{10, 100, 1000, 10000}

// highestSupported is the percentile rule every timing follows: report the
// highest candidate percentile that still has at least ten samples beyond
// it, never above cap. With fewer than 100 samples no candidate qualifies
// and the rule degrades to the median.
func highestSupported(n int, cap float64) float64 {
	best := 0.5
	for _, k := range tailOdds {
		q := 1 - 1/float64(k)
		if q <= cap && n >= 10*k {
			best = q
		}
	}
	return best
}

// micros converts durations to sorted float microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Microsecond)
	}
	sort.Float64s(out)
	return out
}

// timing summarises one duration sample: its median and its tail at the
// highest supported percentile (capped, so a metric named p99 never reports
// a higher one).
type timing struct {
	N     int
	P50   float64 // µs
	Tail  float64 // µs at TailQ
	TailQ float64
}

func summarize(ds []time.Duration, cap float64) timing {
	return summarizeAt(ds, highestSupported(len(ds), cap))
}

// summarizeAt is summarize with the tail percentile given.
func summarizeAt(ds []time.Duration, q float64) timing {
	us := micros(ds)
	return timing{N: len(us), P50: quantile(us, 0.5), Tail: quantile(us, q), TailQ: q}
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the exclusive method), so this
// tool and the driver that gates the benchmark compute the same number.
func quartileSpread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(k int) float64 { // k-th quartile, exclusive method
		pos := float64(k) * float64(n+1) / 4
		j := int(math.Floor(pos))
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		frac := pos - float64(j)
		return s[j-1] + (s[j]-s[j-1])*frac
	}
	med := quantile(s, 0.5)
	if med == 0 {
		return 0
	}
	return math.Abs(at(3)-at(1)) / math.Abs(med)
}
