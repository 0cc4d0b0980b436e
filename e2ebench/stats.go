package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between closest ranks; xs need not be sorted. NaN for an
// empty sample.
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

// tailPerMille is the ladder tailPercentile picks from, in tenths of a
// percent (exact integer arithmetic), highest first.
var tailPerMille = []int{999, 990, 900, 750, 500}

// tailPercentile returns the highest percentile of the ladder that leaves
// at least minBeyond of n samples above it, so a reported tail rests on
// enough observations to mean something; 0 when even the median does not.
func tailPercentile(n, minBeyond int) float64 {
	for _, pm := range tailPerMille {
		if n*(1000-pm) >= minBeyond*1000 {
			return float64(pm) / 10
		}
	}
	return 0
}

// ms converts durations to float milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// interval is a half-open [start, end) stretch of a run's clock, in
// nanoseconds since the run began.
type interval struct{ start, end int64 }

// selfTime returns the part of parent that none of the children covers:
// the parent's duration minus the union of the children's overlaps with
// it. Children may overlap each other and may stick out of the parent.
func selfTime(parent interval, children []interval) int64 {
	var cs []interval
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			cs = append(cs, interval{s, e})
		}
	}
	sort.Slice(cs, func(i, j int) bool { return cs[i].start < cs[j].start })
	covered := int64(0)
	curS, curE := int64(0), int64(-1)
	for _, c := range cs {
		if c.start > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = c.start, c.end
		} else if c.end > curE {
			curE = c.end
		}
	}
	if curE > curS {
		covered += curE - curS
	}
	return parent.end - parent.start - covered
}

// failedFrac is failed operations over attempted ones; 0 when nothing was
// attempted.
func failedFrac(attempted, failed int) float64 {
	if attempted == 0 {
		return 0
	}
	return float64(failed) / float64(attempted)
}
