package main

import (
	"fmt"
	"sort"
)

// summary is a sample's median and quartiles. The quartiles follow
// Python's statistics.quantiles(values, n=4) (its default "exclusive"
// method), so the spreads printed here are the ones a reader computes
// from the same values with the standard library.
type summary struct {
	Median, Q1, Q3 float64
	N              int
}

// summarize returns the median and quartiles of values; the zero
// summary for an empty sample.
func summarize(values []float64) summary {
	n := len(values)
	if n == 0 {
		return summary{}
	}
	x := append([]float64(nil), values...)
	sort.Float64s(x)
	s := summary{N: n, Median: x[n/2]}
	if n%2 == 0 {
		s.Median = (x[n/2-1] + x[n/2]) / 2
	}
	if n == 1 {
		s.Q1, s.Q3 = x[0], x[0]
		return s
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	s.Q1, s.Q3 = q(1), q(3)
	return s
}

// spread is the interquartile distance as a share of the median.
func (s summary) spread() float64 {
	if s.Median == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / s.Median
}

func (s summary) String() string {
	return fmt.Sprintf("%.6g [%.6g, %.6g] n=%d", s.Median, s.Q1, s.Q3, s.N)
}
