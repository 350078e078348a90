package metrics

// merge.go: Summary.Merge, which folds the descriptive statistics of
// disjoint sample sets into one.

import "math"

// Merge combines the summaries of two disjoint sample sets. Count, Mean, Min
// and Max are exact; the percentiles are count-weighted interpolations —
// quantiles are not mergeable without the underlying samples, so callers
// needing exact percentiles must summarize the concatenated values instead.
func (s Summary) Merge(o Summary) Summary {
	if s.Count == 0 {
		return o
	}
	if o.Count == 0 {
		return s
	}
	n := s.Count + o.Count
	ws := float64(s.Count) / float64(n)
	wo := float64(o.Count) / float64(n)
	return Summary{
		Count: n,
		Mean:  ws*s.Mean + wo*o.Mean,
		Min:   math.Min(s.Min, o.Min),
		Max:   math.Max(s.Max, o.Max),
		P50:   ws*s.P50 + wo*o.P50,
		P90:   ws*s.P90 + wo*o.P90,
		P95:   ws*s.P95 + wo*o.P95,
	}
}
