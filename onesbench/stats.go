package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 1) of xs.
// It refuses a percentile with fewer than minBeyond samples above it,
// which a single outlier could otherwise decide.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 || n-rank < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, need %d", 100*p, n, n-rank, minBeyond)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// median returns the middle of xs (the mean of the middle two for an even
// count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean returns the average of xs, or 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// covered returns how long the union of in lasts outside the union of out.
func covered(in, out []interval) time.Duration {
	var pts []time.Time
	for _, iv := range in {
		pts = append(pts, iv.from, iv.to)
	}
	for _, iv := range out {
		pts = append(pts, iv.from, iv.to)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].Before(pts[j]) })
	var d time.Duration
	for k := 1; k < len(pts); k++ {
		a, b := pts[k-1], pts[k]
		if mid := a.Add(b.Sub(a) / 2); b.After(a) && inAny(in, mid) && !inAny(out, mid) {
			d += b.Sub(a)
		}
	}
	return d
}

func inAny(ivs []interval, t time.Time) bool {
	for _, iv := range ivs {
		if !t.Before(iv.from) && t.Before(iv.to) {
			return true
		}
	}
	return false
}
