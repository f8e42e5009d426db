package main

import (
	"math"
	"slices"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	idx := int(math.Ceil(p/100*float64(len(s)))) - 1
	return s[max(0, min(idx, len(s)-1))]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// geomean is the geometric mean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// spread is the range of per-chunk values as a share of their median:
// the within-run sample spread recorded beside every metric.
func spread(vals []float64) float64 {
	if len(vals) < 2 {
		return 0
	}
	m := median(vals)
	if m == 0 {
		return 0
	}
	return (slices.Max(vals) - slices.Min(vals)) / m
}

// chunked applies f to each of n consecutive chunks of xs (in the order
// the samples were taken) and returns the per-chunk values.
func chunked(xs []float64, n int, f func([]float64) float64) []float64 {
	if len(xs) < n {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = f(xs[i*len(xs)/n : (i+1)*len(xs)/n])
	}
	return out
}
