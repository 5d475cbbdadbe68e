package stats

import (
	"math"
	"testing"

	"uvmsim/internal/sim"
)

// bucketOf is the bit length of d: powers of two open a new bucket, and
// the value just below one stays in the previous bucket.
func TestBucketOf(t *testing.T) {
	for _, tc := range []struct {
		d    sim.Duration
		want int
	}{
		{math.MinInt64, 0},
		{-1, 0},
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{1<<10 - 1, 10},
		{1 << 10, 11},
		{1<<10 + 1, 11},
		{1<<32 - 1, 32},
		{1 << 32, 33},
		{1<<32 + 1, 33},
		{1<<62 - 1, 62},
		{1 << 62, 63},
		{1<<62 + 1, 63},
		{math.MaxInt64, 63},
	} {
		if got := bucketOf(tc.d); got != tc.want {
			t.Errorf("bucketOf(%d) = %d, want %d", tc.d, got, tc.want)
		}
	}
}
