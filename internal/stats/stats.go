// Package stats provides the streaming statistics the benchmark harness
// reports: running means, log-bucketed latency histograms with
// quantiles, and CDF extraction (for the paper's Fig 8).
package stats

import (
	"fmt"
	"math"
	"time"
)

// Summary accumulates a running mean and maximum.
type Summary struct {
	n    int64
	mean float64
	max  float64
}

// Add folds in one observation.
func (s *Summary) Add(x float64) {
	s.n++
	if s.n == 1 || x > s.max {
		s.max = x
	}
	s.mean += (x - s.mean) / float64(s.n)
}

// N returns the observation count.
func (s *Summary) N() int64 { return s.n }

// Mean returns the running mean (0 when empty).
func (s *Summary) Mean() float64 { return s.mean }

// Max returns the largest observation.
func (s *Summary) Max() float64 { return s.max }

// Histogram is a latency histogram over log-spaced buckets from 1µs to
// ~17 minutes, retaining enough resolution for quantiles and CDFs.
type Histogram struct {
	counts []int64
	n      int64
	sum    time.Duration
	min    time.Duration
	max    time.Duration
}

// bucketsPerDecade controls resolution: 30 buckets per 10x of latency.
const bucketsPerDecade = 30

// numBuckets spans 1µs .. 10^9µs.
const numBuckets = 9 * bucketsPerDecade

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]int64, numBuckets+1)}
}

func bucketOf(d time.Duration) int {
	us := float64(d) / float64(time.Microsecond)
	if us < 1 {
		return 0
	}
	b := int(math.Log10(us) * bucketsPerDecade)
	if b > numBuckets {
		b = numBuckets
	}
	return b
}

// bucketValue returns the representative latency of bucket b.
func bucketValue(b int) time.Duration {
	us := math.Pow(10, (float64(b)+0.5)/bucketsPerDecade)
	return time.Duration(us * float64(time.Microsecond))
}

// Observe records one latency.
func (h *Histogram) Observe(d time.Duration) {
	h.counts[bucketOf(d)]++
	h.n++
	h.sum += d
	if h.n == 1 {
		h.min, h.max = d, d
		return
	}
	if d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// N returns the number of observations.
func (h *Histogram) N() int64 { return h.n }

// Mean returns the exact running mean.
func (h *Histogram) Mean() time.Duration {
	if h.n == 0 {
		return 0
	}
	return h.sum / time.Duration(h.n)
}

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return h.max }

// Quantile returns the latency at quantile q in [0,1], approximated by the
// containing bucket (clamped to the exact extremes).
func (h *Histogram) Quantile(q float64) time.Duration {
	if h.n == 0 {
		return 0
	}
	target := int64(q * float64(h.n))
	if target >= h.n {
		target = h.n - 1
	}
	var cum int64
	for b, c := range h.counts {
		cum += c
		if cum > target {
			v := bucketValue(b)
			if v < h.min {
				v = h.min
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Latency  time.Duration
	Fraction float64
}

// CDF extracts the empirical CDF (one point per non-empty bucket).
func (h *Histogram) CDF() []CDFPoint {
	if h.n == 0 {
		return nil
	}
	var out []CDFPoint
	var cum int64
	for b, c := range h.counts {
		if c == 0 {
			continue
		}
		cum += c
		out = append(out, CDFPoint{Latency: bucketValue(b), Fraction: float64(cum) / float64(h.n)})
	}
	return out
}

// Merge folds other into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.n == 0 {
		return
	}
	for b, c := range other.counts {
		h.counts[b] += c
	}
	if h.n == 0 {
		h.min, h.max = other.min, other.max
	} else {
		if other.min < h.min {
			h.min = other.min
		}
		if other.max > h.max {
			h.max = other.max
		}
	}
	h.n += other.n
	h.sum += other.sum
}

// FormatDuration renders a latency the way the experiment tables print it.
func FormatDuration(d time.Duration) string {
	switch {
	case d == 0:
		return "0"
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}
