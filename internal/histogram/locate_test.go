package histogram

import (
	"encoding/binary"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// locateRef is the rule Locate implements: the first cut >= v, with NaN
// sent to the last interval.
func locateRef(cuts []float64, v float64) int {
	if math.IsNaN(v) {
		return len(cuts)
	}
	return sort.SearchFloat64s(cuts, v)
}

// probesFor returns every cut and both its neighbours, plus ±0,
// subnormals, ±MaxFloat64, ±Inf and NaN.
func probesFor(cuts []float64) []float64 {
	probes := []float64{
		0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), -math.Float64frombits(0x000fffffffffffff),
		math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN(),
	}
	for _, c := range cuts {
		probes = append(probes, c, math.Nextafter(c, math.Inf(-1)), math.Nextafter(c, math.Inf(1)))
	}
	return probes
}

// checkLocate compares Locate against locateRef at probes.
func checkLocate(t *testing.T, name string, iv *Intervals, probes []float64) {
	t.Helper()
	for _, v := range probes {
		if got, want := iv.Locate(v), locateRef(iv.Cuts, v); got != want {
			t.Fatalf("%s: Locate(%v) = %d, want %d (%d cuts)", name, v, got, want, len(iv.Cuts))
		}
	}
}

// sortedDistinct returns the NaN-free, sorted, deduplicated values.
func sortedDistinct(vals []float64) []float64 {
	var out []float64
	for _, v := range vals {
		if !math.IsNaN(v) {
			out = append(out, v)
		}
	}
	sort.Float64s(out)
	k := 0
	for i, v := range out {
		if i == 0 || v != out[k-1] {
			out[k] = v
			k++
		}
	}
	return out[:k]
}

// constructions builds the four kinds of structure Locate must answer
// alike for: FromSample over the sample, Merge of the even- and
// odd-positioned cuts (as literals) of that structure, the same cuts Reset
// into a structure built over twice as many, and a bare literal holding
// the same cuts, which carries no index.
func constructions(sample []float64, q int) map[string]*Intervals {
	iv := FromSample(sample, q)
	var even, odd []float64
	for i, c := range iv.Cuts {
		if i%2 == 0 {
			even = append(even, c)
		} else {
			odd = append(odd, c)
		}
	}
	// Reset rebuilds a structure that held more cuts before, in place,
	// with room for the sentinel past the cuts.
	reused := FromSample(append(slices.Clone(sample), sample...), 2*q)
	reused.Reset(append(make([]float64, 0, len(iv.Cuts)+1), iv.Cuts...))
	return map[string]*Intervals{
		"FromSample": iv,
		"Merge":      Merge(&Intervals{Cuts: even}, &Intervals{Cuts: odd}),
		"Reset":      reused,
		"literal":    {Cuts: iv.Cuts},
	}
}

// TestLocateMatchesReference is the differential test of the guide index:
// Locate equals sort.SearchFloat64s (NaN → len(Cuts)) at every cut, both
// its neighbours and the special values, for structures whose index covers
// skewed, tied and ordinary cuts, and for structures left without one.
func TestLocateMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	draw := func(n int, f func() float64) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = f()
		}
		return s
	}
	cases := []struct {
		name    string
		sample  []float64
		q       int
		indexed bool // FromSample and Merge must build a guide index
	}{
		{"uniform", draw(10_000, func() float64 { return rng.Float64() * 1e5 }), 1000, true},
		{"lognormal-sigma5", draw(10_000, func() float64 { return math.Exp(5 * rng.NormFloat64()) }), 1000, true},
		{"tied-integers", draw(10_000, func() float64 { return float64(rng.Intn(40)) }), 1000, true},
		{"negative-and-zero", draw(5_000, func() float64 { return -float64(rng.Intn(1000)) / 7 }), 200, true},
		{"subnormal-span", draw(2_000, func() float64 { return float64(rng.Intn(64)) * math.SmallestNonzeroFloat64 }), 50, false},
		{"minus-inf-first", append(draw(2_000, rng.NormFloat64), draw(300, func() float64 { return math.Inf(-1) })...), 100, false},
		// +Inf above the +MaxFloat64 values keeps the top cut at +MaxFloat64.
		{"span-overflows", append(draw(2_000, rng.NormFloat64), draw(900, func() float64 { return []float64{-math.MaxFloat64, math.MaxFloat64, math.Inf(1)}[rng.Intn(3)] })...), 100, false},
		{"fewest-indexed", draw(minGuideCuts+1, rng.Float64), minGuideCuts + 1, true},
		{"too-few-to-index", draw(minGuideCuts, rng.Float64), minGuideCuts, false},
		{"one-cut", []float64{1, 2}, 2, false},
	}
	for _, tc := range cases {
		for kind, iv := range constructions(tc.sample, tc.q) {
			name := tc.name + "/" + kind
			if err := iv.Validate(); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if want := tc.indexed && kind != "literal"; (iv.g.start != nil) != want {
				t.Fatalf("%s: guide index built = %v, want %v (cuts %d, range [%v, %v])",
					name, iv.g.start != nil, want, len(iv.Cuts), iv.Cuts[0], iv.Cuts[len(iv.Cuts)-1])
			}
			probes := append(probesFor(iv.Cuts), tc.sample...)
			checkLocate(t, name, iv, probes)
		}
	}
	// The empty structure from every constructor.
	for name, iv := range map[string]*Intervals{
		"FromSample": FromSample(nil, 10), "Merge": Merge(nil, nil), "literal": {},
	} {
		checkLocate(t, "empty/"+name, iv, probesFor(nil))
	}
}

// FuzzLocate checks Locate against the reference rule for cut sets and
// probes drawn from arbitrary bytes: each byte is read as a small, often
// tied value and each 8-byte word as a raw float64 bit pattern, so both
// dense indexed spans and NaN, ±Inf, subnormal and overflowing ones occur.
func FuzzLocate(f *testing.F) {
	word := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	small := make([]byte, 3*minGuideCuts)
	for i := range small {
		small[i] = byte(i * 7)
	}
	f.Add(small, uint16(2*minGuideCuts), 2.5)
	f.Add(word(-math.MaxFloat64, 0, 1, math.MaxFloat64), uint16(5), 0.5)
	f.Add(word(math.Inf(-1), -1, 0, 1, 2, 3), uint16(6), -0.5)
	f.Add(word(math.SmallestNonzeroFloat64, 5e-324*7, 5e-324*40, 1e-310), uint16(4), 1e-320)
	f.Fuzz(func(t *testing.T, data []byte, q uint16, v float64) {
		var sample []float64
		for _, b := range data {
			sample = append(sample, float64(int8(b))/4)
		}
		for i := 0; i+8 <= len(data); i += 8 {
			sample = append(sample, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
		}
		distinct := sortedDistinct(sample)
		probes := append(probesFor(distinct), v)
		for kind, iv := range constructions(sample, int(q%512)+1) {
			checkLocate(t, kind, iv, probes)
		}
		// Every distinct value as a cut, so the largest one is kept too.
		checkLocate(t, "Merge-all", Merge(&Intervals{Cuts: distinct}, nil), probes)
	})
}

// FuzzLocateBatch checks that LocateBatch gives, value for value, what
// Locate gives, for cut sets drawn as in FuzzLocate and a column of raw
// float64 bit patterns extended by every cut and both its neighbours.
func FuzzLocateBatch(f *testing.F) {
	word := func(vs ...float64) []byte {
		var b []byte
		for _, v := range vs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
		}
		return b
	}
	special := word(math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), -1e300, 1e300)
	indexed := make([]byte, 3*minGuideCuts)
	for i := range indexed {
		indexed[i] = byte(i * 5)
	}
	f.Add(indexed, uint16(2*minGuideCuts), special)
	f.Add(indexed, uint16(minGuideCuts-1), special)        // too few cuts to index
	f.Add([]byte{1, 2, 3, 4}, uint16(3), special)          // a handful of cuts
	f.Add([]byte{}, uint16(10), special)                   // no cuts at all
	f.Add(word(-1, 0, 1, 2), uint16(4), word(-1, 0, 1, 2)) // values equal to cuts
	f.Fuzz(func(t *testing.T, data []byte, q uint16, col []byte) {
		var sample []float64
		for _, b := range data {
			sample = append(sample, float64(int8(b))/4)
		}
		for i := 0; i+8 <= len(data); i += 8 {
			sample = append(sample, math.Float64frombits(binary.LittleEndian.Uint64(data[i:])))
		}
		var vs []float64
		for i := 0; i+8 <= len(col); i += 8 {
			vs = append(vs, math.Float64frombits(binary.LittleEndian.Uint64(col[i:])))
		}
		structures := constructions(sample, int(q%512)+1)
		structures["Merge-all"] = Merge(&Intervals{Cuts: sortedDistinct(sample)}, nil)
		for kind, iv := range structures {
			probes := append(probesFor(iv.Cuts), vs...)
			out := make([]int32, len(probes))
			iv.LocateBatch(probes, out)
			for i, v := range probes {
				if want := iv.Locate(v); int(out[i]) != want {
					t.Fatalf("%s: LocateBatch gives %d for %v, Locate %d (%d cuts)", kind, out[i], v, want, len(iv.Cuts))
				}
			}
		}
	})
}
