package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a percentile before the
// percentile says more than the largest few samples do.
const minBeyond = 10

// dist collects samples for percentile reporting.
type dist struct {
	v      []float64
	sorted bool
}

func (d *dist) add(x float64) {
	d.v = append(d.v, x)
	d.sorted = false
}

func (d *dist) n() int { return len(d.v) }

// pct is one percentile of a dist, with the counts that say how much
// to trust it.
type pct struct {
	q      float64
	value  float64
	n      int // samples in the dist
	beyond int // samples ranked above the percentile
}

// thin reports a percentile with fewer than minBeyond samples above it.
func (p pct) thin() bool { return p.beyond < minBeyond }

func (p pct) String() string {
	s := fmt.Sprintf("p%g=%.4g (n=%d, %d beyond)", 100*p.q, p.value, p.n, p.beyond)
	if p.thin() {
		s += " THIN"
	}
	return s
}

// quantile returns the nearest-rank q-quantile (0 < q ≤ 1). An empty
// dist yields a zero value with n = 0.
func (d *dist) quantile(q float64) pct {
	if len(d.v) == 0 {
		return pct{q: q}
	}
	if !d.sorted {
		sort.Float64s(d.v)
		d.sorted = true
	}
	rank := int(math.Ceil(q * float64(len(d.v))))
	rank = max(1, min(rank, len(d.v)))
	return pct{q: q, value: d.v[rank-1], n: len(d.v), beyond: len(d.v) - rank}
}

func (d *dist) max() float64 { return d.quantile(1).value }

// median is the midpoint of xs (the mean of the middle two for an even
// count); 0 for none. xs is not modified.
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

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}
