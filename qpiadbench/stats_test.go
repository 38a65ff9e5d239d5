package main

import (
	"math"
	"testing"
)

func TestPercentileExact(t *testing.T) {
	// 1..1000 in scrambled order: the nearest-rank p99 is exactly 990,
	// with exactly ten samples beyond it.
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64((i*7919)%1000 + 1)
	}
	cases := []struct {
		p    float64
		want float64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}, {0.999, 999}, {1, 1000}, {0.0001, 1}}
	for _, c := range cases {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := beyond(vals, 0.99); got != 10 {
		t.Errorf("beyond(0.99) = %d, want 10", got)
	}
}

func TestPercentileSmallSample(t *testing.T) {
	vals := []float64{3.25, 1.5, 2.75}
	if got := percentile(vals, 0.5); got != 2.75 {
		t.Errorf("p50 = %v, want 2.75", got)
	}
	if got := percentile(vals, 0.99); got != 3.25 {
		t.Errorf("p99 = %v, want 3.25", got)
	}
	if got := beyond(vals, 0.99); got != 0 {
		t.Errorf("beyond(0.99) = %d, want 0", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("empty sample must give NaN")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	// The input must not be reordered.
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}
