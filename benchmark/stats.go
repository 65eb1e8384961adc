package main

import (
	"sort"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// vals: the smallest value with at least p% of the samples at or below it.
// It sorts a copy; an empty input yields 0.
func percentile(vals []time.Duration, p float64) time.Duration {
	if len(vals) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), vals...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[rankIndex(len(s), p)]
}

// percentileF is percentile over float64 samples.
func percentileF(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	return s[rankIndex(len(s), p)]
}

// rankIndex is the 0-based index of the nearest-rank p-th percentile of n
// sorted samples: ceil(p/100 * n) - 1, clamped to the sample range.
func rankIndex(n int, p float64) int {
	r := int(p / 100 * float64(n))
	if float64(r) < p/100*float64(n) {
		r++
	}
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r - 1
}

// median is percentile 50.
func median(vals []time.Duration) time.Duration { return percentile(vals, 50) }

// goodput counts the requests that succeeded within limit, per second of
// elapsed wall time. A failed request misses the limit whatever its
// latency.
func goodput(lat []time.Duration, ok []bool, limit, elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	n := 0
	for i, l := range lat {
		if ok[i] && l <= limit {
			n++
		}
	}
	return float64(n) / elapsed.Seconds()
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
