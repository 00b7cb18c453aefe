package histogram

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// TestMergeOrderIndependent is the property test for the exported merge
// helpers: splitting a cut collection into shards and folding the shards in
// any permutation yields the same structure, and duplicated cuts never
// break the strictly-increasing invariant.
func TestMergeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		// A pool of cuts with deliberate duplicates across shards.
		nShards := 1 + rng.Intn(5)
		shards := make([]*Intervals, nShards)
		pool := make([]float64, 0, 16)
		for i := 0; i < 8+rng.Intn(8); i++ {
			pool = append(pool, float64(rng.Intn(20))/2)
		}
		for s := range shards {
			sample := make([]float64, 0, 8)
			for i := 0; i < 1+rng.Intn(8); i++ {
				sample = append(sample, pool[rng.Intn(len(pool))])
			}
			shards[s] = FromSample(sample, 1+rng.Intn(6))
			if err := shards[s].Validate(); err != nil {
				t.Fatalf("trial %d: shard %d invalid: %v", trial, s, err)
			}
		}

		fold := func(order []int) *Intervals {
			acc := &Intervals{}
			for _, idx := range order {
				acc = Merge(acc, shards[idx])
			}
			return acc
		}
		base := fold(rng.Perm(nShards))
		if err := base.Validate(); err != nil {
			t.Fatalf("trial %d: merged structure invalid: %v\ncuts: %v", trial, err, base.Cuts)
		}
		for rep := 0; rep < 4; rep++ {
			got := fold(rng.Perm(nShards))
			if !reflect.DeepEqual(got.Cuts, base.Cuts) {
				t.Fatalf("trial %d: merge order changed result: %v vs %v", trial, got.Cuts, base.Cuts)
			}
		}
		// Self-merge is idempotent: duplicates collapse.
		if got := Merge(base, base); !reflect.DeepEqual(got.Cuts, base.Cuts) {
			t.Fatalf("trial %d: self-merge not idempotent: %v vs %v", trial, got.Cuts, base.Cuts)
		}
	}
}

func TestMergeNilAndEmpty(t *testing.T) {
	iv := &Intervals{Cuts: []float64{1, 2, 3}}
	if got := Merge(nil, iv); !reflect.DeepEqual(got.Cuts, iv.Cuts) {
		t.Fatalf("Merge(nil, iv) = %v", got.Cuts)
	}
	if got := Merge(iv, nil); !reflect.DeepEqual(got.Cuts, iv.Cuts) {
		t.Fatalf("Merge(iv, nil) = %v", got.Cuts)
	}
	if got := Merge(&Intervals{}, &Intervals{}); len(got.Cuts) != 0 {
		t.Fatalf("Merge(empty, empty) = %v", got.Cuts)
	}
}

// TestMergeCountOrderIndependent folds permuted count shards element-wise
// with the scalar MergeCount op and checks the sums do not depend on the
// order.
func TestMergeCountOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 100; trial++ {
		n := 1 + rng.Intn(16)
		nShards := 2 + rng.Intn(5)
		shards := make([][]int64, nShards)
		want := make([]int64, n)
		for s := range shards {
			shards[s] = make([]int64, n)
			for i := range shards[s] {
				shards[s][i] = int64(rng.Intn(1000))
				want[i] += shards[s][i]
			}
		}
		for rep := 0; rep < 4; rep++ {
			acc := make([]int64, n)
			for _, idx := range rng.Perm(nShards) {
				for i := range acc {
					acc[i] = MergeCount(acc[i], shards[idx][i])
				}
			}
			if !reflect.DeepEqual(acc, want) {
				t.Fatalf("trial %d: fold %v, want %v", trial, acc, want)
			}
		}
	}
}

// TestResetMatchesFresh holds the frontier's in-place construction,
// AppendQuantiles of a share merged (AppendMerged) with a grid's cuts into
// kept storage and Reset into one reused structure, to
// Merge(FromSorted(share, q), grid) field for field, guide index included:
// over empty shares, ties, signed zeros, and cut counts on both sides of
// minGuideCuts, growing and shrinking from one round to the next.
func TestResetMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var (
		iv         Intervals
		store, tmp []float64
	)
	indexedRounds := 0
	for round := range 400 {
		q := 1 + rng.Intn(40)
		draw := func(n int) []float64 {
			s := make([]float64, n)
			for i := range s {
				switch rng.Intn(8) {
				case 0:
					s[i] = math.Copysign(0, -1)
				case 1:
					s[i] = 0
				default:
					s[i] = float64(rng.Intn(200)-100) / 4
				}
			}
			slices.Sort(s)
			return s
		}
		all, share := draw(rng.Intn(300)), draw(rng.Intn(3)*rng.Intn(60))
		grid := FromSorted(all, q)
		want := Merge(FromSorted(share, q), grid)

		tmp = AppendQuantiles(tmp[:0], share, q)
		store = slices.Grow(store[:0], 2*q-1)
		iv.Reset(AppendMerged(store[:0], tmp, grid.Cuts))

		if !slices.Equal(iv.Cuts, want.Cuts) || (iv.Cuts == nil) != (want.Cuts == nil) {
			t.Fatalf("round %d: cuts %v, want %v", round, iv.Cuts, want.Cuts)
		}
		g, w := iv.g, want.g
		if g.lo != w.lo || g.hi != w.hi || g.scale != w.scale || !slices.Equal(g.start, w.start) || !slices.Equal(g.cuts, w.cuts) {
			t.Fatalf("round %d (%d cuts): guide %+v, want %+v", round, len(want.Cuts), g, w)
		}
		if len(w.start) > 0 {
			indexedRounds++
		}
	}
	if indexedRounds == 0 {
		t.Fatal("no round built a guide index")
	}
	// Rebuilt over cuts with room for the sentinel, an indexed structure
	// allocates nothing.
	cuts := make([]float64, 64, 65)
	for i := range cuts {
		cuts[i] = float64(i)
	}
	if n := testing.AllocsPerRun(10, func() { iv.Reset(cuts) }); n != 0 || len(iv.g.start) == 0 {
		t.Fatalf("Reset allocated %v times per run (indexed %v)", n, len(iv.g.start) > 0)
	}
}
