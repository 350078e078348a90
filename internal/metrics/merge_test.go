package metrics

import (
	"math"
	"testing"
)

// TestSummaryMergeMatchesConcatenation checks Merge against summarizing the
// concatenated samples: Count/Min/Max exact, Mean to float tolerance.
func TestSummaryMergeMatchesConcatenation(t *testing.T) {
	a := []float64{1, 4, 2, 8, 5}
	b := []float64{3, 3, 9}
	c := []float64{-2, 7, 0, 1}
	merged := SummarizeValues(a).Merge(SummarizeValues(b)).Merge(SummarizeValues(c))
	all := append(append(append([]float64{}, a...), b...), c...)
	want := SummarizeValues(all)
	if merged.Count != want.Count {
		t.Errorf("count = %d, want %d", merged.Count, want.Count)
	}
	if merged.Min != want.Min || merged.Max != want.Max {
		t.Errorf("min/max = %v/%v, want %v/%v", merged.Min, merged.Max, want.Min, want.Max)
	}
	if math.Abs(merged.Mean-want.Mean) > 1e-12 {
		t.Errorf("mean = %v, want %v", merged.Mean, want.Mean)
	}
}

func TestSummaryMergeEmptySides(t *testing.T) {
	s := SummarizeValues([]float64{2, 6})
	if got := (Summary{}).Merge(s); got != s {
		t.Errorf("empty.Merge(s) = %+v, want %+v", got, s)
	}
	if got := s.Merge(Summary{}); got != s {
		t.Errorf("s.Merge(empty) = %+v, want %+v", got, s)
	}
}
