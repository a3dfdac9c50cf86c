package main

import "slices"

// median is the 0.5 percentile.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// percentile interpolates linearly between order statistics; it is 0
// for no samples.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// ratio is a/b, or 0 when b is 0 (a metric that does not apply).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
