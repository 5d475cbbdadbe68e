package stats

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"uvmsim/internal/sim"
)

// Histogram is a log2-bucketed latency histogram for simulated durations.
// The zero value is ready to use.
type Histogram struct {
	buckets [64]uint64
	count   uint64
	sum     sim.Duration
	min     sim.Duration
	max     sim.Duration
}

// bucketOf maps d to its log2 bucket: 0 for d <= 0, otherwise the bit
// length of d, which for a positive int64 is at most 63.
func bucketOf(d sim.Duration) int {
	if d <= 0 {
		return 0
	}
	return 64 - bits.LeadingZeros64(uint64(d))
}

// Observe records one duration.
func (h *Histogram) Observe(d sim.Duration) {
	h.buckets[bucketOf(d)]++
	if h.count == 0 || d < h.min {
		h.min = d
	}
	if h.count == 0 || d > h.max {
		h.max = d
	}
	h.count++
	h.sum += d
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// NumBuckets is the number of log2 buckets a Histogram holds.
const NumBuckets = 64

// BucketCount returns the observation count in bucket b (0 <= b <
// NumBuckets). Bucket 0 holds non-positive observations; bucket b >= 1
// holds observations d with 2^(b-1) <= d < 2^b.
func (h *Histogram) BucketCount(b int) uint64 {
	if b < 0 || b >= NumBuckets {
		return 0
	}
	return h.buckets[b]
}

// BucketUpper returns bucket b's exclusive upper edge — the same edge
// Quantile reports — as a duration: 0 for bucket 0, 2^b otherwise.
// Exposing edges lets exporters render true cumulative histograms
// without reaching into the bucket layout.
func (h *Histogram) BucketUpper(b int) sim.Duration {
	if b <= 0 {
		return 0
	}
	if b >= NumBuckets {
		b = NumBuckets - 1
	}
	return sim.Duration(uint64(1) << uint(b))
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() sim.Duration { return h.sum }

// Mean returns the average observation, or 0 when empty.
func (h *Histogram) Mean() sim.Duration {
	if h.count == 0 {
		return 0
	}
	return sim.Duration(int64(h.sum) / int64(h.count))
}

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() sim.Duration { return h.min }

// Max returns the largest observation (0 when empty).
func (h *Histogram) Max() sim.Duration { return h.max }

// Quantile returns an upper-bound estimate of the q-quantile (0 <= q <= 1)
// using bucket upper edges.
func (h *Histogram) Quantile(q float64) sim.Duration {
	if h.count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(h.count)))
	if target == 0 {
		target = 1
	}
	var seen uint64
	for b, n := range h.buckets {
		seen += n
		if seen >= target {
			if b == 0 {
				return 0
			}
			return sim.Duration(uint64(1) << uint(b)) // bucket upper edge
		}
	}
	return h.max
}

// Merge adds other's observations into h.
func (h *Histogram) Merge(other *Histogram) {
	if other.count == 0 {
		return
	}
	for i, n := range other.buckets {
		h.buckets[i] += n
	}
	if h.count == 0 || other.min < h.min {
		h.min = other.min
	}
	if other.max > h.max {
		h.max = other.max
	}
	h.count += other.count
	h.sum += other.sum
}

// String summarizes the distribution.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d mean=%v min=%v p50=%v p99=%v max=%v",
		h.count, h.Mean(), h.min, h.Quantile(0.5), h.Quantile(0.99), h.max)
}

// Series is a named (x, y) series used to regenerate the paper's figures
// as data rather than plots.
type Series struct {
	Name string
	X    []float64
	Y    []float64
}

// Append adds a point.
func (s *Series) Append(x, y float64) {
	s.X = append(s.X, x)
	s.Y = append(s.Y, y)
}

// Len returns the number of points.
func (s *Series) Len() int { return len(s.X) }

// SortByX orders points by ascending x.
func (s *Series) SortByX() {
	idx := make([]int, len(s.X))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return s.X[idx[a]] < s.X[idx[b]] })
	nx := make([]float64, len(s.X))
	ny := make([]float64, len(s.Y))
	for i, j := range idx {
		nx[i], ny[i] = s.X[j], s.Y[j]
	}
	s.X, s.Y = nx, ny
}
