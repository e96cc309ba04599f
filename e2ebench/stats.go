package main

import (
	"math"
	"sort"
)

// summary is a latency population reduced to the statistics the report
// prints. Every percentile is reported with the sample count it rests on.
type summary struct {
	N    int
	Mean float64
	P50  float64
	P99  float64
}

// summarize sorts a copy of xs and reduces it with nearest-rank
// percentiles. An empty population summarizes to zeros with N = 0.
func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	var sum float64
	for _, v := range sorted {
		sum += v
	}
	return summary{
		N:    len(sorted),
		Mean: sum / float64(len(sorted)),
		P50:  nearestRank(sorted, 50),
		P99:  nearestRank(sorted, 99),
	}
}

// nearestRank returns the p-th percentile of sorted (ascending) values by
// the nearest-rank method: the smallest value with at least p% of the
// population at or below it. It returns NaN for an empty population.
func nearestRank(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median is the nearest-rank 50th percentile of an unsorted population.
func median(xs []float64) float64 {
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	return nearestRank(sorted, 50)
}
