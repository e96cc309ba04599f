package main

import (
	"math"
	"testing"
	"time"
)

func TestNearestRank(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct {
		p    float64
		want float64
	}{
		{0, 1},    // rank clamps to the first sample
		{10, 1},   // ceil(1.0) = rank 1
		{11, 2},   // ceil(1.1) = rank 2
		{50, 5},   // the lower middle, not an interpolation
		{90, 9},   // ceil(9.0) = rank 9
		{99, 10},  // ceil(9.9) = rank 10
		{100, 10}, // the maximum
	} {
		if got := nearestRank(sorted, c.p); got != c.want {
			t.Errorf("nearestRank(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := nearestRank([]float64{42}, 99); got != 42 {
		t.Errorf("single sample p99 = %v, want 42", got)
	}
	if !math.IsNaN(nearestRank(nil, 50)) {
		t.Error("empty population must give NaN")
	}
}

func TestSummarizeCountsAndOrder(t *testing.T) {
	// Unsorted input; summarize must not reorder the caller's slice.
	xs := []float64{9, 1, 8, 2, 7, 3, 6, 4, 5, 10}
	s := summarize(xs)
	if s.N != 10 || s.P50 != 5 || s.P99 != 10 || s.Mean != 5.5 {
		t.Fatalf("summarize = %+v", s)
	}
	if xs[0] != 9 || xs[9] != 10 {
		t.Fatal("summarize sorted the caller's slice")
	}
	// 200 samples: p99 is rank 198, so two samples lie above it.
	var big []float64
	for i := 200; i >= 1; i-- {
		big = append(big, float64(i))
	}
	if s := summarize(big); s.N != 200 || s.P99 != 198 || s.P50 != 100 {
		t.Fatalf("summarize(1..200) = %+v", s)
	}
	if s := summarize(nil); s.N != 0 {
		t.Fatalf("summarize(nil) = %+v", s)
	}
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
}

func TestWindowRates(t *testing.T) {
	p := &phaseStats{elapsed: 3500 * time.Millisecond} // three whole windows
	for _, ms := range []int{100, 200, 900, 1100, 2999, 3400} {
		p.ends = append(p.ends, time.Duration(ms)*time.Millisecond)
	}
	got := p.windowRates()
	want := []float64{3, 1, 1} // the partial fourth window is dropped
	if len(got) != len(want) {
		t.Fatalf("windowRates = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("windowRates = %v, want %v", got, want)
		}
	}
}
