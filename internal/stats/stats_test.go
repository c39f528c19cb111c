package stats

import (
	"math"
	"sort"
	"testing"
	"testing/quick"
)

func TestBoxOfKnownValues(t *testing.T) {
	b := BoxOf([]float64{1, 2, 3, 4, 5})
	want := Box{Min: 1, Q1: 2, Median: 3, Q3: 4, Max: 5}
	if b != want {
		t.Fatalf("BoxOf = %+v, want %+v", b, want)
	}
}

func TestBoxOfSingleValue(t *testing.T) {
	b := BoxOf([]float64{7})
	if b.Min != 7 || b.Max != 7 || b.Median != 7 || b.Q1 != 7 || b.Q3 != 7 {
		t.Fatalf("BoxOf single = %+v", b)
	}
}

func TestBoxOfPanicsEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	BoxOf(nil)
}

func TestQuantileInterpolation(t *testing.T) {
	s := []float64{0, 10}
	if got := Quantile(s, 0.5); got != 5 {
		t.Fatalf("median of {0,10} = %v, want 5", got)
	}
	if got := Quantile(s, 0.25); got != 2.5 {
		t.Fatalf("q1 of {0,10} = %v, want 2.5", got)
	}
	if got := Quantile([]float64{3}, 0.9); got != 3 {
		t.Fatalf("quantile of singleton = %v", got)
	}
}

func TestQuantilePanics(t *testing.T) {
	for _, q := range []float64{-0.1, 1.1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) did not panic", q)
				}
			}()
			Quantile([]float64{1, 2}, q)
		}()
	}
}

func TestMeanSum(t *testing.T) {
	v := []float64{2, 4, 6}
	if Mean(v) != 4 {
		t.Errorf("Mean = %v", Mean(v))
	}
	if Sum(v) != 12 {
		t.Errorf("Sum = %v", Sum(v))
	}
	if Mean(nil) != 0 {
		t.Errorf("Mean(nil) = %v", Mean(nil))
	}
}

func TestCDFSteps(t *testing.T) {
	cdf := CDF([]float64{1, 1, 2, 4})
	want := []CDFPoint{{1, 0.5}, {2, 0.75}, {4, 1}}
	if len(cdf) != len(want) {
		t.Fatalf("CDF = %v, want %v", cdf, want)
	}
	for i := range want {
		if cdf[i] != want[i] {
			t.Fatalf("CDF[%d] = %v, want %v", i, cdf[i], want[i])
		}
	}
	if got := CDFAt(cdf, 0.5); got != 0 {
		t.Errorf("CDFAt(0.5) = %v, want 0", got)
	}
	if got := CDFAt(cdf, 1); got != 0.5 {
		t.Errorf("CDFAt(1) = %v, want 0.5", got)
	}
	if got := CDFAt(cdf, 100); got != 1 {
		t.Errorf("CDFAt(100) = %v, want 1", got)
	}
	if CDF(nil) != nil {
		t.Error("CDF(nil) != nil")
	}
}

// Property: box statistics are ordered, bounded by the data, and invariant
// under permutation; the CDF is monotone and ends at 1.
func TestBoxAndCDFProperties(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		v := make([]float64, len(raw))
		for i, x := range raw {
			v[i] = float64(x)
		}
		b := BoxOf(v)
		if !(b.Min <= b.Q1 && b.Q1 <= b.Median && b.Median <= b.Q3 && b.Q3 <= b.Max) {
			return false
		}
		shuffled := append([]float64(nil), v...)
		sort.Sort(sort.Reverse(sort.Float64Slice(shuffled)))
		if BoxOf(shuffled) != b {
			return false
		}
		cdf := CDF(v)
		prevV, prevF := math.Inf(-1), 0.0
		for _, p := range cdf {
			if p.Value <= prevV || p.Fraction <= prevF {
				return false
			}
			prevV, prevF = p.Value, p.Fraction
		}
		return prevF == 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
