package main

import "sort"

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle of xs (the mean of the two middles for an
// even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailSamples is how many samples must lie beyond a reported tail
// percentile for it to mean anything.
const tailSamples = 10

// tail returns the highest percentile of xs that has at least tailSamples
// samples beyond it: the sample at ascending index n-1-tailSamples, and
// the percentile that index stands for. With too few samples for any
// such percentile it falls back to the median (percentile 50).
func tail(xs []float64) (value, percentile float64) {
	n := len(xs)
	if n <= tailSamples {
		return median(xs), 50
	}
	k := n - 1 - tailSamples
	return sorted(xs)[k], 100 * float64(k+1) / float64(n)
}

// Tail windows: at most maxWindows, each of at least windowSamples
// samples, so each window's tail sits near p90 or higher.
const (
	maxWindows    = 5
	windowSamples = 110
)

// windowedTail splits samples, in the order they were taken, into up to
// maxWindows contiguous windows, takes each window's tail, and returns the
// median tail and percentile across windows. A burst of interference from
// outside the program (another tenant taking the CPU) then moves only the
// windows it falls in. Runs too short for two windows use one.
func windowedTail(xs []float64) (value, percentile float64, windows int) {
	k := min(max(len(xs)/windowSamples, 1), maxWindows)
	per := len(xs) / k
	var vs, ps []float64
	for i := 0; i < k; i++ {
		hi := (i + 1) * per
		if i == k-1 {
			hi = len(xs)
		}
		v, p := tail(xs[i*per : hi])
		vs, ps = append(vs, v), append(ps, p)
	}
	return median(vs), median(ps), k
}

// ratio returns a/b for a positive b, else 0.
func ratio(a, b float64) float64 {
	if b <= 0 {
		return 0
	}
	return a / b
}
