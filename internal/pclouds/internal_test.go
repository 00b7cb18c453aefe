package pclouds

import (
	"encoding/binary"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"pclouds/internal/clouds"
	"pclouds/internal/datagen"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

func TestAliveListCodec(t *testing.T) {
	list := []levelAlive{
		{node: 0, AliveInterval: clouds.AliveInterval{AttrJ: 0, Interval: 3, Count: 17, LeftBefore: []int64{5, 12}}},
		{node: 4, AliveInterval: clouds.AliveInterval{AttrJ: 2, Interval: 0, Count: 1, LeftBefore: []int64{0, 0}}},
	}
	got, err := decodeAliveList(encodeAliveList(list, 2), 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(list, got) {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, list)
	}
	// Empty list.
	got, err = decodeAliveList(encodeAliveList(nil, 2), 2, 5)
	if err != nil || len(got) != 0 {
		t.Fatalf("empty list roundtrip: %v %v", got, err)
	}
	// Corruption.
	if _, err := decodeAliveList([]byte{1, 2}, 2, 5); err == nil {
		t.Fatal("short payload should fail")
	}
	raw := encodeAliveList(list, 2)
	if _, err := decodeAliveList(raw[:len(raw)-1], 2, 5); err == nil {
		t.Fatal("truncated payload should fail")
	}
	if _, err := decodeAliveList(raw, 2, 4); err == nil {
		t.Fatal("descriptor for a node beyond the level should fail")
	}
}

func TestPointBucketCodec(t *testing.T) {
	buckets := [][]clouds.Point{
		{{V: 1.5, Class: 0}, {V: -2, Class: 1}},
		nil,
		{{V: 9.25, Class: 1}},
	}
	var frame []byte
	for i, pts := range buckets {
		if len(pts) > 0 {
			frame = appendPointBucket(frame, i, pts)
		}
	}
	owner := []int{1, 0, 1} // rank 1 owns slots 0 and 2
	into := make([][]clouds.Point, 3)
	if err := decodePointBuckets(frame, into, owner, 1, 2); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(buckets[0], into[0]) || into[1] != nil || !reflect.DeepEqual(buckets[2], into[2]) {
		t.Fatalf("roundtrip mismatch: %+v", into)
	}
	// Merging a second peer's frame accumulates.
	if err := decodePointBuckets(frame, into, owner, 1, 2); err != nil {
		t.Fatal(err)
	}
	if len(into[0]) != 4 {
		t.Fatalf("merge failed: %d points", len(into[0]))
	}
	// One frame names a slot at most once.
	if err := decodePointBuckets(append(frame[:len(frame):len(frame)], frame...), into, owner, 1, 2); err == nil {
		t.Fatal("a frame that repeats a slot should fail")
	}
	// Bad index, a slot another rank owns, a class outside the schema.
	if err := decodePointBuckets(frame, make([][]clouds.Point, 1), owner[:1], 1, 2); err == nil {
		t.Fatal("out-of-range bucket should fail")
	}
	if err := decodePointBuckets(frame, into, owner, 0, 2); err == nil {
		t.Fatal("bucket for a slot this rank does not own should fail")
	}
	if err := decodePointBuckets(frame, into, owner, 1, 1); err == nil {
		t.Fatal("class outside the schema should fail")
	}
}

func TestTaskRecordCodec(t *testing.T) {
	schema := datagen.Schema()
	g, _ := datagen.New(datagen.Config{Function: 2, Seed: 1})
	buckets := [][]record.Record{
		{g.Next(), g.Next()},
		nil,
		{g.Next()},
	}
	var frame []byte
	for i, recs := range buckets {
		if len(recs) == 0 {
			continue
		}
		frame = binary.LittleEndian.AppendUint32(frame, uint32(i))
		frame = binary.LittleEndian.AppendUint32(frame, uint32(len(recs)))
		for _, r := range recs {
			frame = r.Encode(frame)
		}
	}
	into := make([][]record.Record, 3)
	arena := &recordArena{schema: schema}
	if err := decodeTaskRecords(schema, frame, into, arena); err != nil {
		t.Fatal(err)
	}
	if len(into[0]) != 2 || into[1] != nil || len(into[2]) != 1 {
		t.Fatalf("roundtrip shape: %v", into)
	}
	if !reflect.DeepEqual(into[0], buckets[0]) || !reflect.DeepEqual(into[2], buckets[2]) {
		t.Fatal("record contents mangled")
	}
	if err := decodeTaskRecords(schema, []byte{1, 2, 3}, into, arena); err == nil {
		t.Fatal("corrupt frame should fail")
	}
	// A count larger than the bytes present must fail before it sizes
	// anything.
	huge := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 0), 1<<31)
	if err := decodeTaskRecords(schema, huge, into, arena); err == nil {
		t.Fatal("oversized count should fail")
	}
}

func TestSubtreeCodec(t *testing.T) {
	results := [][]byte{nil, {1, 2, 3}, nil, {}}
	pairs, err := decodeSubtrees(encodeSubtrees(results))
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 2 {
		t.Fatalf("pairs %d", len(pairs))
	}
	if pairs[0].idx != 1 || string(pairs[0].blob) != string([]byte{1, 2, 3}) {
		t.Fatalf("pair 0: %+v", pairs[0])
	}
	if pairs[1].idx != 3 || len(pairs[1].blob) != 0 {
		t.Fatalf("pair 1: %+v", pairs[1])
	}
	if _, err := decodeSubtrees([]byte{9}); err == nil {
		t.Fatal("corrupt frame should fail")
	}
}

func TestIntervalMappingProperties(t *testing.T) {
	f := func(nI8, p8 uint8) bool {
		nI := int(nI8%200) + 1
		p := int(p8%16) + 1
		m := intervalMapping([]int{nI}, p)
		return mappingValid(m[0], p, nI)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHybridMappingProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 300; iter++ {
		nAttrs := 1 + rng.Intn(8)
		counts := make([]int, nAttrs)
		total := 0
		for j := range counts {
			counts[j] = 1 + rng.Intn(50)
			total += counts[j]
		}
		p := 1 + rng.Intn(16)
		m := hybridMapping(counts, p)
		// Per-attribute monotone and in range.
		for j, owners := range m {
			if !mappingValid(owners, p, counts[j]) {
				t.Fatalf("attribute %d invalid owners %v (p=%d)", j, owners, p)
			}
		}
		// Global monotone along the concatenated stream.
		last := 0
		for _, owners := range m {
			for _, o := range owners {
				if o < last {
					t.Fatalf("hybrid mapping not monotone along the stream")
				}
				last = o
			}
		}
		// Balance: with enough intervals, every rank owns something.
		if total >= p {
			owned := make([]int, p)
			for _, owners := range m {
				for _, o := range owners {
					owned[o]++
				}
			}
			for r, c := range owned {
				if c == 0 {
					t.Fatalf("rank %d owns nothing (total=%d p=%d)", r, total, p)
				}
			}
		}
	}
}

func mappingValid(owners []int, p, nI int) bool {
	if len(owners) != nI {
		return false
	}
	last := 0
	for _, o := range owners {
		if o < 0 || o >= p || o < last {
			return false
		}
		last = o
	}
	return true
}

func TestAssignIntervalsDeterministicAndBalanced(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	alive := make([]levelAlive, 40)
	for i := range alive {
		alive[i] = levelAlive{node: i % 3, AliveInterval: clouds.AliveInterval{AttrJ: i % 5, Interval: i / 5, Count: int64(1 + rng.Intn(1000))}}
	}
	a := assignIntervals(alive, 4)
	b := assignIntervals(alive, 4)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("assignment not deterministic")
	}
	load := make([]float64, 4)
	for i, o := range a {
		n := float64(alive[i].Count)
		cost := n
		if n >= 2 {
			cost = n * log2(n)
		}
		load[o] += cost
	}
	minL, maxL := load[0], load[0]
	for _, l := range load[1:] {
		if l < minL {
			minL = l
		}
		if l > maxL {
			maxL = l
		}
	}
	if maxL > 2.5*minL {
		t.Fatalf("LPT assignment imbalanced: %v", load)
	}
}

func log2(x float64) float64 {
	n := 0.0
	for x > 1 {
		x /= 2
		n++
	}
	return n + x - 1 // crude; only used for rough balance checking
}

func TestBlockedSchemesAgreeOnOddGroupSizes(t *testing.T) {
	// Integration: the four boundary schemes must produce the identical
	// tree with q deliberately not a multiple of p, so block mappings split
	// attributes mid-range.
	g, _ := datagen.New(datagen.Config{Function: 6, Seed: 77})
	data := g.Generate(3000)
	cfg := testConfig(clouds.SSE)
	cfg.Clouds.QRoot = 97
	sample := cfg.Clouds.SampleFor(data)
	ref, _ := buildParallel(t, cfg, data, sample, 5) // AttributeBased
	for _, bm := range []BoundaryMethod{FullReplication, IntervalBased, Hybrid} {
		c := cfg
		c.Boundary = bm
		tr, _ := buildParallel(t, c, data, sample, 5)
		if !tree.Equal(ref, tr) {
			t.Fatalf("boundary method %v built a different tree", bm)
		}
	}
}
