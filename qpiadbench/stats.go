package main

import (
	"math"
	"sort"
	"time"
)

// samples holds raw per-request observations in milliseconds. Every
// percentile the benchmark reports is computed from these exact values,
// never from a bucketed histogram.
type samples []float64

func (s *samples) add(d time.Duration) { *s = append(*s, float64(d)/float64(time.Millisecond)) }

// percentile returns the nearest-rank p-quantile (0 < p <= 1): the
// smallest sample with at least p·n samples at or below it. It returns
// NaN for an empty sample.
func percentile(vals []float64, p float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	rank := int(math.Ceil(p * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(s) {
		rank = len(s)
	}
	return s[rank-1]
}

// beyond counts the samples strictly above the nearest-rank p-quantile;
// a percentile is only trusted when at least ten samples lie beyond it.
func beyond(vals []float64, p float64) int {
	q := percentile(vals, p)
	n := 0
	for _, v := range vals {
		if v > q {
			n++
		}
	}
	return n
}

// median is the middle value (the mean of the two middle values for an
// even count), NaN for an empty sample.
func median(vals []float64) float64 {
	if len(vals) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), vals...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio divides, returning 0 when the denominator is 0 (a layer that did
// no work on this workload).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
