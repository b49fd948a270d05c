package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is the fewest samples a tail percentile needs beyond it before
// it is reported: with fewer, it is the maximum of a handful of samples.
const minBeyond = 10

// rank is the 1-based nearest rank of the q-quantile among n samples: the
// smallest rank with at least q·n samples at or below it.
func rank(n int, q float64) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank q-quantile of xs (0 for no samples).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(len(s), q)-1]
}

// tailMeasurable reports whether the q-percentile of n samples has at least
// minBeyond samples beyond it. For q = 0.99 that needs n >= 1000.
func tailMeasurable(n int, q float64) bool {
	return n-rank(n, q) >= minBeyond
}

// quartiles returns the nearest-rank first quartile, median and third
// quartile of xs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := sorted(xs)
	return s[rank(len(s), 0.25)-1], s[rank(len(s), 0.5)-1], s[rank(len(s), 0.75)-1]
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
