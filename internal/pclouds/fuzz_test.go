package pclouds

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"pclouds/internal/clouds"
	"pclouds/internal/tree"
)

// The three decoders of the level-batched frames read bytes a peer sent.
// For each: garbage must error (never panic, never allocate by a length
// field the bytes present do not back), and whatever is accepted must
// re-encode to exactly the bytes that came in.

func FuzzPointBuckets(f *testing.F) {
	const slots, classes = 8, 3
	f.Add([]byte{})
	f.Add(appendPointBucket(appendPointBucket(nil, 1, []clouds.Point{{V: 1.5, Class: 2}, {V: math.Inf(-1)}}),
		6, []clouds.Point{{V: math.NaN(), Class: 1}}))
	f.Add(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 0), 1<<31))
	owner := make([]int, slots) // this rank (0) owns every slot
	f.Fuzz(func(t *testing.T, src []byte) {
		into := make([][]clouds.Point, slots)
		if err := decodePointBuckets(src, into, owner, 0, classes); err != nil {
			return
		}
		var again []byte
		for idx, pts := range into {
			if len(pts) > 0 {
				again = appendPointBucket(again, idx, pts)
			}
		}
		if !bytes.Equal(again, src) {
			t.Fatalf("accepted %x, re-encoded %x", src, again)
		}
		if decodePointBuckets(src, into, make([]int, slots), 1, classes) == nil && len(src) > 0 {
			t.Fatalf("rank 1 accepted buckets for slots rank 0 owns: %x", src)
		}
	})
}

func FuzzAliveList(f *testing.F) {
	const classes, nodes = 2, 16
	f.Add(encodeAliveList(nil, classes))
	f.Add(encodeAliveList([]levelAlive{
		{node: 0, AliveInterval: clouds.AliveInterval{AttrJ: 1, Interval: 7, Count: 12, LeftBefore: []int64{3, 4}}},
		{node: 0, AliveInterval: clouds.AliveInterval{AttrJ: 2, Interval: 0, Count: 1, LeftBefore: []int64{0, 0}}},
		{node: 9, AliveInterval: clouds.AliveInterval{AttrJ: 0, Interval: 3, Count: 5, LeftBefore: []int64{9, 1}}},
	}, classes))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, src []byte) {
		list, err := decodeAliveList(src, classes, nodes)
		if err != nil {
			return
		}
		if again := encodeAliveList(list, classes); !bytes.Equal(again, src) {
			t.Fatalf("accepted %x, re-encoded %x", src, again)
		}
	})
}

// FuzzDecodeManifest: a level manifest is read back from disk. Garbage must
// error, never panic; an accepted manifest satisfies every invariant that
// restoring its tasks relies on and survives a json.Marshal round trip.
func FuzzDecodeManifest(f *testing.F) {
	const classes = 2
	seed, err := json.MarshalIndent(ckptManifest{
		Version: ckptVersion, Level: 2, Rank: 1, Size: 4, NRoot: 40, NextID: 3, Split: "sse",
		Pending: []ckptTask{{ID: "nLL", File: "root-2L", N: 12, ClassCounts: []int64{5, 7}, LocalCount: 3}},
		Small:   []ckptTask{{ID: "nR", File: "root-1R", N: 9, ClassCounts: []int64{9, 0}}},
	}, "", "  ")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	f.Add(bytes.Replace(seed, []byte(`"nLL"`), []byte(`"nLM"`), 1))
	f.Add([]byte(`{"pending":[{"id":"n","class_counts":[1]}]}`))
	f.Fuzz(func(t *testing.T, src []byte) {
		m, err := decodeManifest(src, classes)
		if err != nil {
			return
		}
		for _, ct := range append(append([]ckptTask(nil), m.Pending...), m.Small...) {
			if len(ct.ID) < 2 || ct.ID[0] != 'n' {
				t.Fatalf("accepted task id %q", ct.ID)
			}
			for _, step := range []byte(ct.ID[1:]) {
				if step != 'L' && step != 'R' {
					t.Fatalf("accepted task id %q", ct.ID)
				}
			}
			if len(ct.ClassCounts) != classes || ct.ClassCounts[0] < 0 || ct.ClassCounts[1] < 0 ||
				ct.ClassCounts[0]+ct.ClassCounts[1] != ct.N || ct.LocalCount < 0 || ct.LocalCount > ct.N {
				t.Fatalf("accepted task %+v", ct)
			}
		}
		again, err := json.Marshal(m)
		if err != nil {
			t.Fatal(err)
		}
		if back, err := decodeManifest(again, classes); err != nil || !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip of %+v: %+v, %v", m, back, err)
		}
	})
}

func FuzzCandidateVector(f *testing.F) {
	f.Add(encodeCandidates(nil))
	f.Add(encodeCandidates([]clouds.Candidate{
		{},
		{Valid: true, Gini: 0.25, Attr: 3, Kind: tree.NumericSplit, Threshold: -1.5, LeftN: 7, LeftCounts: []int64{3, 4}},
		{Valid: true, Gini: 0.4, Attr: 8, Kind: tree.CategoricalSplit, InLeft: []bool{true, false, true}, LeftN: 2, LeftCounts: []int64{2, 0}},
	}))
	f.Add([]byte{2, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, src []byte) {
		if len(src) < 4 {
			if _, err := decodeCandidates(src, 0); err == nil {
				t.Fatalf("accepted a vector without its count: %x", src)
			}
			return
		}
		cands, err := decodeCandidates(src, int(binary.LittleEndian.Uint32(src)))
		if err != nil {
			return
		}
		if again := encodeCandidates(cands); !bytes.Equal(again, src) {
			t.Fatalf("accepted %x, re-encoded %x", src, again)
		}
		// The reduction operator accepts what the decoder accepts, and a
		// vector combined with itself is itself.
		merged, err := mergeCandidates(src, src)
		if err != nil || !bytes.Equal(merged, src) {
			t.Fatalf("merging %x with itself: %x, %v", src, merged, err)
		}
	})
}
