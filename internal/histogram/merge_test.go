package histogram

import (
	"math/rand"
	"reflect"
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
