package histogram

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFromSampleBasics(t *testing.T) {
	sample := []float64{1, 2, 3, 4, 5, 6, 7, 8}
	iv := FromSample(sample, 4)
	if err := iv.Validate(); err != nil {
		t.Fatal(err)
	}
	if iv.NumIntervals() != 4 {
		t.Fatalf("intervals %d want 4", iv.NumIntervals())
	}
	if iv.NumBounds() != 3 {
		t.Fatalf("bounds %d want 3", iv.NumBounds())
	}
	// Quantile cuts at 2, 4, 6.
	want := []float64{2, 4, 6}
	for i, c := range iv.Cuts {
		if c != want[i] {
			t.Fatalf("cuts %v want %v", iv.Cuts, want)
		}
	}
}

func TestFromSampleEqualMass(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	sample := make([]float64, 10000)
	for i := range sample {
		sample[i] = rng.NormFloat64()
	}
	q := 20
	iv := FromSample(sample, q)
	if err := iv.Validate(); err != nil {
		t.Fatal(err)
	}
	counts := make([]int, iv.NumIntervals())
	for _, v := range sample {
		counts[iv.Locate(v)]++
	}
	want := len(sample) / q
	for i, c := range counts {
		if c < want/2 || c > want*2 {
			t.Errorf("interval %d holds %d points, want ~%d", i, c, want)
		}
	}
}

func TestFromSampleDuplicateHeavy(t *testing.T) {
	// A sample dominated by one value must not produce non-increasing cuts.
	sample := make([]float64, 100)
	for i := range sample {
		sample[i] = 5
	}
	sample[0], sample[1] = 1, 9
	iv := FromSample(sample, 10)
	if err := iv.Validate(); err != nil {
		t.Fatal(err)
	}
	if iv.NumIntervals() > 10 {
		t.Fatalf("too many intervals: %d", iv.NumIntervals())
	}
}

func TestFromSampleEdgeCases(t *testing.T) {
	if iv := FromSample(nil, 5); iv.NumIntervals() != 1 {
		t.Fatal("empty sample should give one interval")
	}
	if iv := FromSample([]float64{3}, 5); iv.NumIntervals() != 1 {
		t.Fatal("single value should give one interval")
	}
	if iv := FromSample([]float64{1, 2, 3}, 1); iv.NumIntervals() != 1 {
		t.Fatal("q=1 should give one interval")
	}
	if iv := FromSample([]float64{1, 2, 3}, 0); iv.NumIntervals() != 1 {
		t.Fatal("q=0 should clamp to one interval")
	}
	// All-equal sample: no valid cut exists.
	if iv := FromSample([]float64{4, 4, 4, 4}, 3); iv.NumBounds() != 0 {
		t.Fatalf("all-equal sample produced cuts: %v", iv.Cuts)
	}
}

func TestFromSampleTiedRegression(t *testing.T) {
	// Regression: heavily tied samples at several plateau values. Every
	// quantile lands on a plateau, so without dedupe adjacent cuts repeat
	// and Validate fails with empty intervals in between.
	cases := [][]float64{
		{2, 2, 2, 2, 2, 2, 7, 7, 7, 7, 7, 7},
		{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2},
		{0, 0, 0, 5, 5, 5, 5, 5, 5, 9, 9, 9},
	}
	for _, sample := range cases {
		for q := 2; q <= 2*len(sample); q++ {
			iv := FromSample(sample, q)
			if err := iv.Validate(); err != nil {
				t.Fatalf("sample %v q=%d: %v (cuts %v)", sample, q, err, iv.Cuts)
			}
		}
	}
}

func TestFromSampleNaN(t *testing.T) {
	nan := math.NaN()
	// NaN values sort ahead of every number; before the construction-time
	// filter they could become a (Validate-breaking) first cut and suppress
	// every later one. They must simply be ignored.
	sample := []float64{nan, nan, 1, 2, 3, 4, 5, 6, 7, 8}
	iv := FromSample(sample, 4)
	if err := iv.Validate(); err != nil {
		t.Fatalf("NaN sample: %v (cuts %v)", err, iv.Cuts)
	}
	if iv.NumBounds() == 0 {
		t.Fatal("NaN values suppressed every cut")
	}
	clean := FromSample([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	if len(iv.Cuts) != len(clean.Cuts) {
		t.Fatalf("NaN-polluted cuts %v differ from clean cuts %v", iv.Cuts, clean.Cuts)
	}
	for i := range iv.Cuts {
		if iv.Cuts[i] != clean.Cuts[i] {
			t.Fatalf("NaN-polluted cuts %v differ from clean cuts %v", iv.Cuts, clean.Cuts)
		}
	}
	// All-NaN degenerates to the single whole-line interval.
	if iv := FromSample([]float64{nan, nan, nan}, 5); iv.NumIntervals() != 1 {
		t.Fatalf("all-NaN sample produced cuts: %v", iv.Cuts)
	}
}

func TestFromSampleInf(t *testing.T) {
	inf := math.Inf(1)
	// +Inf can only ever be the final quantile, which equals the sample
	// maximum and is dropped; -Inf is an ordinary (if degenerate) low cut.
	iv := FromSample([]float64{1, 2, 3, inf, inf, inf, inf, inf}, 4)
	if err := iv.Validate(); err != nil {
		t.Fatal(err)
	}
	for _, c := range iv.Cuts {
		if math.IsInf(c, 1) {
			t.Fatalf("+Inf cut survived: %v", iv.Cuts)
		}
	}
	iv = FromSample([]float64{math.Inf(-1), math.Inf(-1), 1, 2, 3, 4, 5, 6}, 4)
	if err := iv.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestLocateNaNGoesRight(t *testing.T) {
	// The unseen-value policy of tree.Splitter.GoesLeft: a NaN never
	// satisfies "v <= threshold", so it goes right of every candidate
	// splitter. Locate must agree by placing NaN in the last interval —
	// explicitly, not as a sort.SearchFloat64s accident.
	iv := &Intervals{Cuts: []float64{10, 20, 30}}
	if got := iv.Locate(math.NaN()); got != iv.NumIntervals()-1 {
		t.Fatalf("Locate(NaN) = %d, want last interval %d", got, iv.NumIntervals()-1)
	}
	if got := iv.Locate(math.Inf(-1)); got != 0 {
		t.Fatalf("Locate(-Inf) = %d, want 0", got)
	}
	if got := iv.Locate(math.Inf(1)); got != iv.NumIntervals()-1 {
		t.Fatalf("Locate(+Inf) = %d, want last interval", got)
	}
	// Empty structure: everything, NaN included, is interval 0.
	empty := &Intervals{}
	if got := empty.Locate(math.NaN()); got != 0 {
		t.Fatalf("empty Locate(NaN) = %d, want 0", got)
	}
}

func TestValidateRejectsNaNCut(t *testing.T) {
	iv := &Intervals{Cuts: []float64{math.NaN()}}
	if err := iv.Validate(); err == nil {
		t.Fatal("a lone NaN cut must fail validation")
	}
	iv = &Intervals{Cuts: []float64{math.NaN(), 1, 2}}
	if err := iv.Validate(); err == nil {
		t.Fatal("a leading NaN cut must fail validation")
	}
}

func TestNoCutAtMaximum(t *testing.T) {
	// The top cut must stay below the sample maximum, else the "everything
	// left" split would be proposed.
	sample := []float64{1, 1, 1, 2}
	iv := FromSample(sample, 4)
	for _, c := range iv.Cuts {
		if c >= 2 {
			t.Fatalf("cut %v at or above the maximum", c)
		}
	}
}

func TestLocate(t *testing.T) {
	iv := &Intervals{Cuts: []float64{10, 20, 30}}
	cases := []struct {
		v    float64
		want int
	}{
		{5, 0}, {10, 0}, {10.5, 1}, {20, 1}, {25, 2}, {30, 2}, {31, 3},
	}
	for _, tc := range cases {
		if got := iv.Locate(tc.v); got != tc.want {
			t.Errorf("Locate(%v) = %d, want %d", tc.v, got, tc.want)
		}
	}
}

func TestLocateConsistentWithCuts(t *testing.T) {
	f := func(vals []float64, q uint8) bool {
		if len(vals) == 0 {
			return true
		}
		iv := FromSample(vals, int(q%16)+2)
		if iv.Validate() != nil {
			return false
		}
		for _, v := range vals {
			i := iv.Locate(v)
			if i < 0 || i >= iv.NumIntervals() {
				return false
			}
			// v must lie within interval i's bounds.
			if i > 0 && v <= iv.Cuts[i-1] {
				return false
			}
			if i < len(iv.Cuts) && v > iv.Cuts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsUnsorted(t *testing.T) {
	iv := &Intervals{Cuts: []float64{3, 2}}
	if err := iv.Validate(); err == nil {
		t.Fatal("unsorted cuts should fail validation")
	}
	iv = &Intervals{Cuts: []float64{2, 2}}
	if err := iv.Validate(); err == nil {
		t.Fatal("duplicate cuts should fail validation")
	}
}

// TestFromSampleSignedZeroOrderFree: -0 and +0 tie in the sort, so which
// one a quantile lands on depends on the sample's order. Every order must
// give bit-identical cuts, the zero stored as +0.
func TestFromSampleSignedZeroOrderFree(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{-1, negZero, 0, 1, 2, negZero, 0}
	for q := 2; q <= len(vals); q++ {
		want := FromSample([]float64{-1, 0, 0, 0, 0, 1, 2}, q).Cuts
		rng := rand.New(rand.NewSource(int64(q)))
		for trial := 0; trial < 200; trial++ {
			rng.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
			got := FromSample(vals, q).Cuts
			if len(got) != len(want) {
				t.Fatalf("q=%d order %v: cuts %v, want %v", q, vals, got, want)
			}
			for i := range got {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
					t.Fatalf("q=%d order %v: cut %d is %v (bits %#x), want %v", q, vals, i, got[i], math.Float64bits(got[i]), want[i])
				}
			}
		}
	}
}
