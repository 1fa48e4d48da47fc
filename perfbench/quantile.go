package main

import (
	"math"
	"slices"
)

// quantiles returns the exact nearest-rank quantiles of samples at each
// p in ps (0 < p <= 1): the smallest recorded value with at least a
// p share of the samples at or below it. It sorts samples in place and
// also returns the sample count, which every reported quantile carries.
// An empty sample yields NaN for every p.
//
// Every latency the benchmark reports goes through this function, never
// through the program's bucketed histograms, whose half-octave buckets
// move a median by a whole bucket between identical runs.
func quantiles(samples []uint32, ps ...float64) ([]float64, int) {
	n := len(samples)
	out := make([]float64, len(ps))
	if n == 0 {
		for i := range out {
			out[i] = math.NaN()
		}
		return out, 0
	}
	slices.Sort(samples)
	for i, p := range ps {
		rank := int(math.Ceil(p * float64(n)))
		rank = min(max(rank, 1), n)
		out[i] = float64(samples[rank-1])
	}
	return out, n
}
