package main

import "testing"

func TestQuantileCountsAndThinFlag(t *testing.T) {
	d := &dist{}
	for i := 1; i <= 100; i++ {
		d.add(float64(101 - i)) // unsorted on purpose
	}
	for _, tc := range []struct {
		q      float64
		value  float64
		beyond int
		thin   bool
	}{
		{0.5, 50, 50, false},
		{0.9, 90, 10, false},
		{0.95, 95, 5, true},
		{0.99, 99, 1, true},
		{1, 100, 0, true},
	} {
		p := d.quantile(tc.q)
		if p.value != tc.value || p.beyond != tc.beyond || p.n != 100 || p.thin() != tc.thin {
			t.Errorf("q=%g: got value %g, %d beyond, n=%d, thin %v; want %g, %d beyond, thin %v",
				tc.q, p.value, p.beyond, p.n, p.thin(), tc.value, tc.beyond, tc.thin)
		}
	}
	if p := (&dist{}).quantile(0.5); p.n != 0 || p.value != 0 || !p.thin() {
		t.Errorf("empty dist: %+v", p)
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
}
