package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of xs (0 <= q <= 1) by linear
// interpolation between order statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// summary describes one sample in the run record. N is kept beside every
// percentile so a reader can tell a p99 of six values (their maximum, in
// effect) from one with ten samples beyond it.
type summary struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	P25    float64 `json:"p25"`
	P75    float64 `json:"p75"`
	P99    float64 `json:"p99"`
	Max    float64 `json:"max"`
}

func summarize(xs []float64) summary {
	return summary{
		N: len(xs), Median: median(xs),
		P25: quantile(xs, 0.25), P75: quantile(xs, 0.75),
		P99: quantile(xs, 0.99), Max: quantile(xs, 1),
	}
}
