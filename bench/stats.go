package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// percentile: a tail figure resting on fewer is noise, not a measurement.
const minBeyond = 10

// sample is a set of timings (or other values) from one phase.
type sample []float64

// sorted returns an ascending copy.
func (s sample) sorted() []float64 {
	c := append([]float64(nil), s...)
	sort.Float64s(c)
	return c
}

// quantile is the nearest-rank q-quantile (0 < q ≤ 1) of ascending xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	k := int(math.Ceil(q*float64(len(xs)))) - 1
	if k < 0 {
		k = 0
	}
	if k >= len(xs) {
		k = len(xs) - 1
	}
	return xs[k]
}

// beyond is the number of samples strictly after the nearest-rank
// q-quantile of n samples.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	k := int(math.Ceil(q * float64(n)))
	if k < 1 {
		k = 1
	}
	return n - k
}

// supports reports whether n samples carry the q-quantile: at least
// minBeyond samples must lie beyond it.
func supports(n int, q float64) bool { return beyond(n, q) >= minBeyond }

// tailLadder lists the percentiles a tail figure may report, highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.90, 0.75, 0.50}

// tail returns the highest percentile in tailLadder that the sample
// supports, with its value; ok is false when not even the median has
// minBeyond samples beyond it.
func (s sample) tail() (q, v float64, ok bool) {
	xs := s.sorted()
	for _, q := range tailLadder {
		if supports(len(xs), q) {
			return q, quantile(xs, q), true
		}
	}
	return 0, math.NaN(), false
}

// median returns the sample median (nearest rank).
func (s sample) median() float64 { return quantile(s.sorted(), 0.5) }

// at returns the q-quantile when the sample supports it.
func (s sample) at(q float64) (float64, bool) {
	if !supports(len(s), q) {
		return math.NaN(), false
	}
	return quantile(s.sorted(), q), true
}

// slope is the least-squares slope of ys against xs (0 for fewer than two
// distinct xs).
func slope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if len(xs) < 2 || len(xs) != len(ys) {
		return 0
	}
	var sx, sy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
	}
	mx, my := sx/n, sy/n
	var sxx, sxy float64
	for i := range xs {
		dx := xs[i] - mx
		sxx += dx * dx
		sxy += dx * (ys[i] - my)
	}
	if sxx == 0 {
		return 0
	}
	return sxy / sxx
}
