package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{4}, 4},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns, the rule the spread of ten runs is taken with.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{7}, 7, 7},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 4.5},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 50}, 1, 1},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending: percentile must sort
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		p    float64
		want float64
	}{
		{10, 0.50, 5},
		{10, 1.00, 10},
		{8, 0.99, 8},       // below 100 samples p99 is the maximum
		{100, 0.99, 99},    // one sample beyond
		{1100, 0.99, 1089}, // eleven samples beyond: a true p99
		{1, 0.99, 1},
	} {
		if got := percentile(seq(c.n), c.p); got != c.want {
			t.Errorf("p%v of 1..%d = %v, want %v", c.p*100, c.n, got, c.want)
		}
	}
	if got := percentile(nil, 0.99); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
}

func TestSummarySpread(t *testing.T) {
	s := summarize([]float64{1, 2, 3, 4, 5})
	if s.Median != 3 || s.N != 5 || math.Abs(s.spread()-1) > 1e-12 {
		t.Errorf("summarize = %+v, spread %v; want median 3, n 5, spread 1", s, s.spread())
	}
}

func TestLimitFloor(t *testing.T) {
	l := limit{Share: 0.25, Floor: 0.1}
	if got := l.of(0.2); got != 0.1 {
		t.Errorf("a 25%% share of 0.2 is below the floor: allowance %v, want 0.1", got)
	}
	if got := l.of(4); got != 1 {
		t.Errorf("allowance on 4 = %v, want 1", got)
	}
	if got := (limit{}).of(4); got != 0 {
		t.Errorf("the exact limit allows %v, want 0", got)
	}
}

func TestCompare(t *testing.T) {
	tight := func(m float64) summary { return summary{Median: m, Q1: m * 0.99, Q3: m * 1.01, N: 5} }
	wide := func(m float64) summary { return summary{Median: m, Q1: m * 0.8, Q3: m * 1.2, N: 5} }
	host := limit{Share: 0.1, Floor: 0.1}
	for _, c := range []struct {
		name       string
		base, next summary
		l          limit
		better     string
		want       verdict
		within     bool
	}{
		{"inside the share", tight(10), tight(10.5), host, "lower", unchanged, true},
		{"worse than the share", tight(10), tight(11.5), host, "lower", regressed, false},
		{"better than the share", tight(10), tight(8), host, "lower", improved, false},
		{"floor absorbs a small base", tight(0.2), tight(0.29), host, "lower", unchanged, true},
		{"floor exceeded", tight(0.2), tight(0.35), host, "lower", regressed, false},
		{"spread wider than the bound", wide(10), tight(10.2), host, "lower", unresolved, true},
		{"spread wider, medians apart", tight(10), wide(13), host, "lower", unresolved, false},
		{"exact and equal", tight(7), tight(7), limit{}, "lower", unchanged, true},
		{"exact and one ulp apart", tight(7), tight(math.Nextafter(7, 8)), limit{}, "lower", regressed, false},
		{"higher is better, fell", tight(10), tight(8), host, "higher", regressed, false},
		{"higher is better, exact count rose", tight(15), tight(16), limit{}, "higher", improved, false},
	} {
		got, within := compare(c.base, c.next, c.l, c.better)
		if got != c.want || within != c.within {
			t.Errorf("%s: compare = %s (within %v), want %s (within %v)", c.name, got, within, c.want, c.within)
		}
	}
}
