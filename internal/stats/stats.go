// Package stats provides the summary statistics behind the paper's figures:
// box-plot five-number summaries (Figs. 3, 8-10), empirical CDF series
// (Figs. 4-6), and simple aggregates.
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Box is the five-number summary rendered by the paper's box plots.
type Box struct {
	Min    float64
	Q1     float64
	Median float64
	Q3     float64
	Max    float64
}

// BoxOf summarizes values; it panics on an empty input because an empty box
// plot indicates a harness bug, not a data condition.
func BoxOf(values []float64) Box {
	if len(values) == 0 {
		panic("stats: BoxOf of empty slice")
	}
	s := sorted(values)
	return Box{
		Min:    s[0],
		Q1:     Quantile(s, 0.25),
		Median: Quantile(s, 0.5),
		Q3:     Quantile(s, 0.75),
		Max:    s[len(s)-1],
	}
}

func (b Box) String() string {
	return fmt.Sprintf("min=%.4g q1=%.4g med=%.4g q3=%.4g max=%.4g",
		b.Min, b.Q1, b.Median, b.Q3, b.Max)
}

// Quantile returns the q-th quantile (0 <= q <= 1) of an ascending-sorted
// slice using linear interpolation between order statistics.
func Quantile(sortedValues []float64, q float64) float64 {
	n := len(sortedValues)
	if n == 0 {
		panic("stats: Quantile of empty slice")
	}
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("stats: quantile %v out of [0,1]", q))
	}
	if n == 1 {
		return sortedValues[0]
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sortedValues[lo]
	}
	frac := pos - float64(lo)
	return sortedValues[lo]*(1-frac) + sortedValues[hi]*frac
}

// Mean returns the arithmetic mean; 0 for an empty slice.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Sum returns the total of values.
func Sum(values []float64) float64 {
	var s float64
	for _, v := range values {
		s += v
	}
	return s
}

// CDFPoint is one step of an empirical CDF: Fraction of the population has
// Value or less.
type CDFPoint struct {
	Value    float64
	Fraction float64 // in (0, 1]
}

// CDF computes the empirical distribution of values — the "percentage of
// channels" curves of Figs. 4-6. The result has one point per distinct
// value, ascending.
func CDF(values []float64) []CDFPoint {
	if len(values) == 0 {
		return nil
	}
	s := sorted(values)
	n := float64(len(s))
	var out []CDFPoint
	for i := 0; i < len(s); i++ {
		// Collapse runs of equal values into the final (highest) fraction.
		if i+1 < len(s) && s[i+1] == s[i] {
			continue
		}
		out = append(out, CDFPoint{Value: s[i], Fraction: float64(i+1) / n})
	}
	return out
}

// CDFAt evaluates an empirical CDF at x: the fraction of the population
// with value <= x.
func CDFAt(cdf []CDFPoint, x float64) float64 {
	frac := 0.0
	for _, p := range cdf {
		if p.Value > x {
			break
		}
		frac = p.Fraction
	}
	return frac
}

func sorted(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}
