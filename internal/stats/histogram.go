package stats

import (
	"fmt"
	"strings"
	"sync/atomic"
	"time"
)

// Histogram is a fixed-bucket histogram safe for concurrent observation. The
// engine uses it on hot paths (per-request queue-wait times, queue depths,
// group-commit batch sizes), so Observe is a single atomic increment plus an
// atomic add for the running sum; no locks are taken.
//
// Buckets are defined by their inclusive upper bounds; an implicit overflow
// bucket collects observations above the last bound.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last is overflow
	count  atomic.Int64
	sum    atomic.Int64 // sum of observations, rounded to int64
}

// NewHistogram creates a histogram with the given ascending upper bounds.
func NewHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// ExponentialBounds returns n ascending bounds starting at start and growing
// by factor, e.g. ExponentialBounds(1, 2, 4) = [1 2 4 8].
func ExponentialBounds(start, factor float64, n int) []float64 {
	bounds := make([]float64, 0, n)
	v := start
	for i := 0; i < n; i++ {
		bounds = append(bounds, v)
		v *= factor
	}
	return bounds
}

// DurationBounds returns exponential bounds in nanoseconds suitable for
// latency-style histograms, from 1µs up to ~8.5s (24 powers of two).
func DurationBounds() []float64 {
	return ExponentialBounds(float64(time.Microsecond), 2, 24)
}

// DepthBounds returns bounds suitable for small integer gauges such as queue
// depths and batch sizes: 0,1,2,4,...,4096.
func DepthBounds() []float64 {
	return append([]float64{0}, ExponentialBounds(1, 2, 13)...)
}

// ByteBounds returns exponential bounds suitable for byte-size histograms
// (e.g. bytes fsynced per WAL flush): 64B up to ~32MiB.
func ByteBounds() []float64 {
	return ExponentialBounds(64, 2, 20)
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(int64(v))
}

// ObserveDuration records a duration observation in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(float64(d)) }

// Count returns the number of observations recorded.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Mean returns the mean observation, or zero for an empty histogram.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Reset discards all observations.
func (h *Histogram) Reset() {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	h.count.Store(0)
	h.sum.Store(0)
}

// Snapshot returns a point-in-time copy of the histogram. Concurrent
// observations may tear across buckets; totals are recomputed from the copied
// buckets so the snapshot is internally consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    float64(h.sum.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// HistogramSnapshot is an immutable view of a Histogram. Counts has one more
// entry than Bounds; the extra entry is the overflow bucket.
type HistogramSnapshot struct {
	Bounds []float64
	Counts []int64
	Count  int64
	Sum    float64
}

// MergeSnapshots combines snapshots taken from histograms with identical
// bucket bounds (e.g. the per-executor queue-wait histograms of one
// deployment) into one distribution. Snapshots with mismatched bounds are
// skipped; an empty input yields a zero snapshot.
func MergeSnapshots(snaps ...HistogramSnapshot) HistogramSnapshot {
	var out HistogramSnapshot
	for _, s := range snaps {
		if out.Bounds == nil {
			out.Bounds = s.Bounds
			out.Counts = make([]int64, len(s.Counts))
		}
		if len(s.Counts) != len(out.Counts) || len(s.Bounds) != len(out.Bounds) {
			continue
		}
		for i, c := range s.Counts {
			out.Counts[i] += c
		}
		out.Count += s.Count
		out.Sum += s.Sum
	}
	return out
}

// Mean returns the mean observation in the snapshot.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile returns an estimate of the q-th quantile (q in [0,1]) assuming a
// uniform distribution within each bucket. Observations in the overflow bucket
// are attributed to the last bound.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || len(s.Bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i, c := range s.Counts {
		next := cum + float64(c)
		if next >= rank && c > 0 {
			lo := 0.0
			if i > 0 {
				lo = s.Bounds[i-1]
			}
			hi := s.Bounds[len(s.Bounds)-1]
			if i < len(s.Bounds) {
				hi = s.Bounds[i]
			}
			frac := (rank - cum) / float64(c)
			return lo + frac*(hi-lo)
		}
		cum = next
	}
	return s.Bounds[len(s.Bounds)-1]
}

// String renders the non-empty buckets compactly, for logs and test output.
func (s HistogramSnapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "count=%d mean=%.0f", s.Count, s.Mean())
	for i, c := range s.Counts {
		if c == 0 {
			continue
		}
		if i < len(s.Bounds) {
			fmt.Fprintf(&b, " le(%g)=%d", s.Bounds[i], c)
		} else {
			fmt.Fprintf(&b, " inf=%d", c)
		}
	}
	return b.String()
}
