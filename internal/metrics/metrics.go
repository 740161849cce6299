// Package metrics provides the measurement primitives of the simulated
// paper runs (the engine's counters are typed fields of the stores that
// own them): latency histograms, windowed throughput series,
// and summary statistics (mean, percentiles, standard error) matching
// what the paper reports for YCSB (average latency over the last ten
// minutes, measured in ten-second windows, with standard error across
// the sixty measurements) and TPC-H (arithmetic and geometric means).
package metrics

import (
	"fmt"
	"math"
	"sort"

	"elephants/internal/sim"
)

// Histogram records latency observations with exact storage up to a
// configurable cap, after which it subsamples deterministically. For the
// simulation's operation counts exact storage is the common case.
type Histogram struct {
	samples []float64 // milliseconds
	count   int64
	sum     float64
	min     float64
	max     float64
	cap     int
	sorted  bool
}

// NewHistogram returns a histogram that keeps at most capSamples exact
// samples (0 means a default of 1<<20).
func NewHistogram(capSamples int) *Histogram {
	if capSamples <= 0 {
		capSamples = 1 << 20
	}
	return &Histogram{cap: capSamples, min: math.Inf(1), max: math.Inf(-1)}
}

// Observe records one latency.
func (h *Histogram) Observe(d sim.Duration) { h.ObserveMs(d.Milliseconds()) }

// ObserveMs records one latency expressed in milliseconds.
func (h *Histogram) ObserveMs(ms float64) {
	h.count++
	h.sum += ms
	if ms < h.min {
		h.min = ms
	}
	if ms > h.max {
		h.max = ms
	}
	if len(h.samples) < h.cap {
		h.samples = append(h.samples, ms)
		h.sorted = false
		return
	}
	// Deterministic reservoir-style replacement keyed on count.
	idx := int(h.count % int64(h.cap))
	h.samples[idx] = ms
	h.sorted = false
}

// Count reports the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Mean reports the mean latency in milliseconds (0 if empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Min reports the smallest observation in milliseconds (0 if empty).
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max reports the largest observation in milliseconds (0 if empty).
func (h *Histogram) Max() float64 {
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Percentile reports the p-th percentile (0 < p <= 100) in milliseconds.
func (h *Histogram) Percentile(p float64) float64 {
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Float64s(h.samples)
		h.sorted = true
	}
	if p <= 0 {
		return h.samples[0]
	}
	if p >= 100 {
		return h.samples[len(h.samples)-1]
	}
	rank := p / 100 * float64(len(h.samples)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return h.samples[lo]
	}
	frac := rank - float64(lo)
	return h.samples[lo]*(1-frac) + h.samples[hi]*frac
}

// Window accumulates completed-operation counts into fixed-size windows
// of virtual time, yielding a throughput series. The paper uses 10-second
// windows over the final 10 minutes of each 30-minute YCSB run.
type Window struct {
	size   sim.Duration
	counts map[int64]int64
}

// NewWindow returns a throughput window series with the given window size.
func NewWindow(size sim.Duration) *Window {
	if size <= 0 {
		panic("metrics: window size must be positive")
	}
	return &Window{size: size, counts: make(map[int64]int64)}
}

// Record counts one completed operation at virtual time t.
func (w *Window) Record(t sim.Time) {
	w.counts[int64(t)/int64(w.size)]++
}

// Series returns per-window throughput in operations/second for windows
// whose start time falls in [from, to), in window order. Windows with no
// operations in the range are reported as zero.
func (w *Window) Series(from, to sim.Time) []float64 {
	if to <= from {
		return nil
	}
	first := int64(from) / int64(w.size)
	last := (int64(to) - 1) / int64(w.size)
	out := make([]float64, 0, last-first+1)
	for i := first; i <= last; i++ {
		out = append(out, float64(w.counts[i])/w.size.Seconds())
	}
	return out
}

// Summary is a point estimate with its standard error, as plotted in the
// paper's YCSB figures.
type Summary struct {
	Mean   float64
	StdErr float64
	N      int
}

// Summarize computes mean and standard error of a sample.
func Summarize(xs []float64) Summary {
	n := len(xs)
	if n == 0 {
		return Summary{}
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	mean := sum / float64(n)
	if n == 1 {
		return Summary{Mean: mean, N: 1}
	}
	var ss float64
	for _, x := range xs {
		d := x - mean
		ss += d * d
	}
	sd := math.Sqrt(ss / float64(n-1))
	return Summary{Mean: mean, StdErr: sd / math.Sqrt(float64(n)), N: n}
}

func (s Summary) String() string {
	return fmt.Sprintf("%.2f ± %.2f (n=%d)", s.Mean, s.StdErr, s.N)
}

// ArithmeticMean returns the arithmetic mean of xs (0 if empty).
func ArithmeticMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// GeometricMean returns the geometric mean of xs (0 if empty or if any
// value is non-positive).
func GeometricMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logSum float64
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		logSum += math.Log(x)
	}
	return math.Exp(logSum / float64(len(xs)))
}
