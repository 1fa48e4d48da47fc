package main

import (
	"math"
	"testing"
)

func TestQuantilesNearestRank(t *testing.T) {
	// 1..20 shuffled: p50 is the 10th smallest value, p90 the 18th.
	samples := []uint32{7, 19, 3, 12, 1, 20, 15, 9, 4, 17, 2, 11, 14, 6, 18, 8, 13, 5, 16, 10}
	got, n := quantiles(samples, 0.5, 0.9, 1)
	if n != 20 {
		t.Fatalf("count = %d, want 20", n)
	}
	want := []float64{10, 18, 20}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("quantile %d = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestQuantilesSmallAndEmpty(t *testing.T) {
	got, n := quantiles([]uint32{42}, 0.5, 0.9)
	if n != 1 || got[0] != 42 || got[1] != 42 {
		t.Errorf("single sample: got %v (n=%d), want [42 42] (n=1)", got, n)
	}
	got, n = quantiles([]uint32{5, 1, 3}, 0.5)
	if n != 3 || got[0] != 3 {
		t.Errorf("three samples: p50 = %v (n=%d), want 3 (n=3)", got[0], n)
	}
	got, n = quantiles(nil, 0.5)
	if n != 0 || !math.IsNaN(got[0]) {
		t.Errorf("empty: got %v (n=%d), want NaN (n=0)", got, n)
	}
}
