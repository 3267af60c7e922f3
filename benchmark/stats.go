package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle samples.
// It is 0 for no samples.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile by the rule of Python's
// statistics.quantiles(xs, n=4), the one the contract's spread is taken
// with: position (len+1)·k/4 with linear interpolation. Fewer than two
// samples have no spread, so both quartiles are the sample itself.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return s[0], s[0]
	}
	at := func(k int) float64 {
		j := max(1, min(k*(n+1)/4, n-1))
		delta := k*(n+1) - j*4 // outside [0,4] at the clamp: Python extrapolates too
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// percentile is the nearest-rank p-quantile: the smallest sample with at
// least ⌈p·n⌉ samples at or below it. Below 1/(1-p) samples it is the
// maximum.
func percentile(xs []float64, p float64) float64 {
	s := sorted(xs)
	if len(s) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(s)))) - 1
	i = max(0, min(i, len(s)-1))
	return s[i]
}

// mean is the arithmetic mean, 0 for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// summary is what one metric reports for one workload: the median over the
// run's repetitions with its quartiles and sample count.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

func summarize(xs []float64) summary {
	q1, q3 := quartiles(xs)
	return summary{Median: median(xs), Q1: q1, Q3: q3, N: len(xs)}
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / math.Abs(s.Median)
}

// verdict is the outcome of comparing two sets of runs on one metric.
type verdict string

const (
	unchanged  verdict = "unchanged"
	regressed  verdict = "regressed"
	improved   verdict = "improved"
	unresolved verdict = "unresolved"
)

// limit is how far a metric may worsen before it counts as a regression: a
// share of the base median, or an absolute floor when that is larger (a
// 10 % bound on a 0.2 s set-up would gate on scheduler noise). The zero
// limit is exact: any difference counts.
type limit struct {
	Share float64 `json:"share"`
	Floor float64 `json:"floor,omitempty"`
}

func (l limit) of(base float64) float64 {
	return math.Max(l.Share*math.Abs(base), l.Floor)
}

// compare judges next against base. worse is how far next's median moved
// in the bad direction; within says it stayed inside the allowance either
// way. When either side's own interquartile spread is wider than the
// allowance the two medians cannot be told apart at that resolution, and the
// verdict is unresolved rather than unchanged.
func compare(base, next summary, l limit, better string) (v verdict, within bool) {
	allow := l.of(base.Median)
	worse := next.Median - base.Median
	if better == "higher" {
		worse = -worse
	}
	within = math.Abs(worse) <= allow
	switch {
	case allow > 0 && (base.Q3-base.Q1 > allow || next.Q3-next.Q1 > allow):
		return unresolved, within
	case within:
		return unchanged, true
	case worse > 0:
		return regressed, false
	}
	return improved, false
}
