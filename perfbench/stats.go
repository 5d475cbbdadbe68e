package main

import (
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a reported tail
// percentile: fewer and the value is one or two outliers, not a tail.
const minTail = 10

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail reports the nearest-rank percentile p of xs, lowered to the
// highest percentile that still has minTail samples beyond it. It
// returns the value, the percentile actually used and how many samples
// lie beyond it. When that percentile would fall below the median (fewer
// than 2*minTail samples), the median is reported as p50.
func tail(xs []float64, p float64) (value, used float64, beyond int) {
	n := len(xs)
	rank := int(math.Ceil(p / 100 * float64(n)))
	if rank > n-minTail {
		rank = n - minTail
	}
	if 2*rank < n {
		return median(xs), 50, n / 2
	}
	return sorted(xs)[rank-1], 100 * float64(rank) / float64(n), n - rank
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// frac divides, reading 0/0 as 0 so a layer that did no work reports
// a zero ratio rather than NaN.
func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
