package main

import (
	"math"
	"sort"
)

// quartiles returns the three cut points of xs by the "exclusive" method of
// Python's statistics.quantiles(xs, n=4), ported exactly (including its
// linear extrapolation for very small samples), so the figures this
// benchmark prints match the ones its spread check is computed with. Fewer
// than two samples yield the sample itself.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	const n = 4
	m := ld + 1
	var cut [n - 1]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		cut[i-1] = (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return cut[0], cut[1], cut[2]
}

// median returns the middle sample (the mean of the two middle ones for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentileAllowed reports whether the p-th percentile (0 < p < 100) of n
// samples may be reported: at least ten samples must lie beyond it, so the
// figure is not set by a handful of outliers.
func percentileAllowed(n int, p float64) bool {
	beyond := int(math.Floor(float64(n) * (100 - p) / 100))
	return beyond >= 10
}

// percentile returns the nearest-rank p-th percentile of xs (0 for no
// samples). Callers check percentileAllowed first.
func percentile(xs []float64, p float64) float64 {
	s := sortedCopy(xs)
	if len(s) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// interval is a half-open span of time [lo, hi) in seconds.
type interval struct{ lo, hi float64 }

// unionLength is the total length covered by the intervals. Overlapping
// intervals — children running on parallel workers — count once.
func unionLength(ivs []interval) float64 {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(a, b int) bool { return s[a].lo < s[b].lo })
	total, curLo, curHi := 0.0, math.Inf(-1), math.Inf(-1)
	for _, iv := range s {
		if iv.hi <= iv.lo {
			continue
		}
		if iv.lo > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = iv.lo, iv.hi
			continue
		}
		if iv.hi > curHi {
			curHi = iv.hi
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}

// selfTime is a span's duration minus the part of it its children cover.
// Children are clipped to the parent first, so a child that overruns its
// parent's end cannot make self time negative.
func selfTime(parent interval, children []interval) float64 {
	clipped := make([]interval, 0, len(children))
	for _, c := range children {
		lo, hi := math.Max(c.lo, parent.lo), math.Min(c.hi, parent.hi)
		if hi > lo {
			clipped = append(clipped, interval{lo, hi})
		}
	}
	return (parent.hi - parent.lo) - unionLength(clipped)
}

// failureLedger counts client-rounds for failed_ratio: every client-round
// attempted, and those that failed — dropped or quarantined clients, every
// client-round of a round that skipped aggregation, and every client-round
// of a round that failed an output check. A client-round is counted failed
// at most once.
type failureLedger struct {
	attempted, failed int
}

// round books one round of cohort client-rounds, of which dropped and
// quarantined failed individually; a skipped round or one that failed a
// check loses all of them.
func (l *failureLedger) round(cohort, dropped, quarantined int, skipped, checkFailed bool) {
	l.attempted += cohort
	if skipped || checkFailed {
		l.failed += cohort
		return
	}
	bad := dropped + quarantined
	if bad > cohort {
		bad = cohort
	}
	l.failed += bad
}

// ratio is failed ÷ attempted (0 when nothing was attempted).
func (l *failureLedger) ratio() float64 {
	if l.attempted == 0 {
		return 0
	}
	return float64(l.failed) / float64(l.attempted)
}
