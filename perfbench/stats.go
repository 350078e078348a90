package main

import (
	"fmt"
	"math"
	"sort"
)

// tailLadder lists the percentiles a latency series may be reported at, in
// per-mille, lowest first.
var tailLadder = []int{500, 900, 950, 990, 999}

// beyond returns how many of n samples lie strictly above the nearest-rank
// per-mille percentile pm (rank ⌈pm·n/1000⌉).
func beyond(n, pm int) int {
	rank := (pm*n + 999) / 1000
	return n - rank
}

// tailLevel returns the highest percentile of tailLadder with at least ten
// samples beyond it out of n, or 0 when not even the median qualifies.
func tailLevel(n int) int {
	best := 0
	for _, pm := range tailLadder {
		if beyond(n, pm) >= 10 {
			best = pm
		}
	}
	return best
}

// percentile returns the nearest-rank per-mille percentile pm of xs
// (which it sorts in place). It returns NaN for an empty series.
func percentile(xs []float64, pm int) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := (pm*len(xs) + 999) / 1000
	if rank < 1 {
		rank = 1
	}
	return xs[rank-1]
}

// median is the 500‰ percentile.
func median(xs []float64) float64 { return percentile(xs, 500) }

// tail is a latency series summarised the way the benchmark reports it: the
// median and the named percentile, with the sample count and the highest
// percentile the count would support.
type tail struct {
	n        int
	p50, pXX float64
	pm       int // the reported percentile, per-mille
	level    int // tailLevel(n)
}

// summarize reports series xs at percentile pm, refusing a series too short
// to have ten samples beyond pm.
func summarize(name string, xs []float64, pm int) (tail, error) {
	t := tail{n: len(xs), pm: pm, level: tailLevel(len(xs))}
	if beyond(len(xs), pm) < 10 {
		return t, fmt.Errorf("%s: %d samples leave fewer than 10 beyond p%s", name, len(xs), pmName(pm))
	}
	cp := append([]float64(nil), xs...)
	t.p50 = percentile(cp, 500)
	t.pXX = percentile(cp, pm)
	return t, nil
}

// pmName renders a per-mille level as a percentile label ("95", "99.9").
func pmName(pm int) string {
	if pm%10 == 0 {
		return fmt.Sprint(pm / 10)
	}
	return fmt.Sprintf("%d.%d", pm/10, pm%10)
}

func (t tail) String() string {
	return fmt.Sprintf("n=%d p50=%.4g p%s=%.4g (highest percentile with >=10 samples beyond: p%s)",
		t.n, t.p50, pmName(t.pm), t.pXX, pmName(t.level))
}

// blockRate splits a sequence of (work, seconds) samples into consecutive
// blocks of at least minBlock samples and returns the median of the blocks'
// work-per-second rates. A median over blocks keeps a short stall (a GC
// cycle, a burst of hypervisor steal) from moving the whole figure.
func blockRate(work, secs []float64, minBlock int) float64 {
	var rates []float64
	w, s, k := 0.0, 0.0, 0
	for i := range work {
		w += work[i]
		s += secs[i]
		k++
		if k == minBlock {
			rates = append(rates, w/s)
			w, s, k = 0, 0, 0
		}
	}
	if len(rates) == 0 && s > 0 {
		rates = append(rates, w/s)
	}
	return median(rates)
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
