package main

import (
	"math"
	"sort"
)

// tailLadder lists the percentiles a tail may report, highest first. The
// benchmark reports the highest one that leaves at least minBeyond samples
// above it, so a tail is never read off a handful of requests. p85 is left
// out: in query_mix about one select or limit in eight queues behind an
// err 0.03 aggregate, so p85 sits on the edge of that mode and moved the
// tail threefold between seeds.
var tailLadder = []int{99, 95, 90, 80, 75}

// minBeyond is how many samples must lie beyond a reported tail percentile.
const minBeyond = 10

// beyond returns how many of n samples lie above percentile p.
func beyond(n, p int) float64 { return float64(n) * float64(100-p) / 100 }

// tailPercentile returns the highest ladder percentile that leaves at least
// minBeyond of n samples beyond it, or 0 when n is too small for any.
func tailPercentile(n int) int {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 0
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks. xs need not be sorted; it is not
// modified. It returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
