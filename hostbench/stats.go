package main

import (
	"fmt"
	"math"
	"regexp"
	"sort"
)

// sortedCopy returns xs sorted ascending without touching the caller's slice.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle samples.
// It returns 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
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

// quartiles returns the first and third quartile by the same rule as
// Python's statistics.quantiles(xs, n=4) (the "exclusive" method), so
// spreads computed here agree with ones computed from the printed
// values. Fewer than two samples give (x, x).
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		// Python's integer arithmetic: the i-th cut point lies at
		// i*(n+1)/4 on the 1-based order statistics; the bracketing
		// pair is clamped to the sample (so small samples extrapolate,
		// as Python's do).
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// tail is the highest reported percentile of a timing that still has
// at least tailMinBeyond samples above it.
type tail struct {
	P     float64 // percentile, e.g. 90
	Value float64
	OK    bool // false when even the median has fewer samples beyond it
}

// tailMinBeyond is how many samples must lie beyond a reported
// percentile for it to mean more than a single outlier.
const tailMinBeyond = 10

var tailPercentiles = []float64{99.9, 99, 95, 90, 75, 50}

// rank is the nearest-rank position of the p-th percentile among n
// samples: the p-th percentile is the rank-th smallest sample, and the
// n-rank samples above it lie beyond it.
// Percentiles are taken in tenths so the ceiling is exact integer
// arithmetic (0.999*10000 is not 9990 in floating point).
func rank(p float64, n int) int {
	tenths := int(math.Round(p * 10))
	return max((tenths*n+999)/1000, 1)
}

// percentile is the nearest-rank p-th percentile (0 for no samples).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sortedCopy(xs)[rank(p, len(xs))-1]
}

// highestTail picks, from tailPercentiles, the highest percentile with
// at least tailMinBeyond samples beyond it.
func highestTail(xs []float64) tail {
	n := len(xs)
	for _, p := range tailPercentiles {
		if r := rank(p, n); n-r >= tailMinBeyond {
			return tail{P: p, Value: sortedCopy(xs)[r-1], OK: true}
		}
	}
	return tail{}
}

// describe renders a timing as its median, its quartiles, its highest
// tail percentile and the sample count, the form every timing is
// reported in.
func describe(xs []float64, unit string) string {
	q1, q3 := quartiles(xs)
	s := fmt.Sprintf("median=%.6g %s q1=%.6g q3=%.6g", median(xs), unit, q1, q3)
	if t := highestTail(xs); t.OK {
		s += fmt.Sprintf(" p%g=%.6g", t.P, t.Value)
	} else {
		s += fmt.Sprintf(" (no percentile has %d samples beyond it)", tailMinBeyond)
	}
	return fmt.Sprintf("%s n=%d", s, len(xs))
}

var (
	metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE       = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// validMetric reports whether a metric name and unit fit the result
// format: a name starts with a letter or digit and has at most 64 of
// [A-Za-z0-9_.-]; a unit has at most 16 of [A-Za-z0-9_/%.-].
func validMetric(name, unit string) bool {
	return metricNameRE.MatchString(name) && unitRE.MatchString(unit)
}
