package main

import (
	"math"
	"sort"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of values by linear
// interpolation between order statistics, the estimator Python's
// statistics.quantiles(method="inclusive") and numpy's default use. It
// sorts a copy; an empty input yields NaN so a window without samples can
// never pass for a measurement.
func percentile(values []float64, q float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(values []float64) float64 { return percentile(values, 0.5) }

// calmShare is the part of a phase's slices the timing metrics are taken
// from.
const calmShare = 0.25

// calm pools the calmShare of ws with the lowest median latency into one
// window. On a shared host a neighbour's burst only ever adds time, to every
// request, for seconds on end, so the slices with the lowest medians are the
// ones the neighbours left alone. Selecting by the median and then pooling
// every sample of the chosen slices keeps what the program itself does to
// the tail — a collector pause, a flush timer, a stall every few seconds —
// in the percentiles, which the single best slice would not; a change that
// slows every request slows every slice and moves the calm ones with the
// rest. Slices without a successful request are never chosen.
func calm(ws []window) window {
	type keyed struct {
		median float64
		w      window
	}
	var byMedian []keyed
	for _, w := range ws {
		if w.ok > 0 {
			byMedian = append(byMedian, keyed{w.p50(), w})
		}
	}
	sort.SliceStable(byMedian, func(i, j int) bool { return byMedian[i].median < byMedian[j].median })
	n := int(math.Ceil(calmShare * float64(len(byMedian))))
	var out window
	for _, k := range byMedian[:n] {
		w := k.w
		out.latMs = append(out.latMs, w.latMs...)
		out.ok += w.ok
		out.cpu += w.cpu
		out.rps += w.rps / float64(n) // slices are equally long
	}
	return out
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(values, n=4) (the default "exclusive" method)
// computes them, because that is what the driver judges the spread with.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 { // quantile i of 4
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	q1, q3 := quartiles(values)
	return (q3 - q1) / median(values)
}
