package stream

import (
	"bytes"
	"testing"

	"pclouds/internal/clouds"
	"pclouds/internal/datagen"
	"pclouds/internal/tree"
)

// FuzzDecodeCheckpoint hammers the window-checkpoint decoder with
// arbitrary bytes: it must reject garbage with an error, never panic, and
// anything it accepts must re-encode byte-identically (the decoder and
// encoder agree on the format, so a resumed run checkpoints the same
// bytes an uninterrupted one would).
func FuzzDecodeCheckpoint(f *testing.F) {
	schema := datagen.Schema()
	const fp = 0x5eed5eed

	g, err := datagen.New(datagen.Config{Function: 2, Seed: 11})
	if err != nil {
		f.Fatal(err)
	}
	data := g.Generate(200)
	tr, _, err := clouds.BuildInCore(clouds.Config{Seed: 1, MaxDepth: 4}, data, nil)
	if err != nil {
		f.Fatal(err)
	}

	// Seed corpus: an empty state, a full state (tree, reservoir, detector
	// history, last-published model), and mangled variants of the latter.
	f.Add(encodeCkpt(fp, 0, &ckptState{window: 1, nextIdx: 42}))
	full := encodeCkpt(fp, 0xabcd1234, &ckptState{
		window: 9, nextIdx: 12345, tree: tr, reservoir: data.Records[:30],
		det: phDetector{n: 7, sum: 1.75, m: 0.2, min: -0.04}, driftPending: true,
		lastPub: tr, lastPubWin: 8,
	})
	f.Add(full)
	f.Add(full[:len(full)-1])
	f.Add(full[:20])
	f.Add([]byte{})
	f.Add([]byte("PCSTRMW3"))
	truncTree := append([]byte(nil), full...)
	truncTree[20] = 0xff // inflate treeLen past the buffer
	f.Add(truncTree)

	f.Fuzz(func(t *testing.T, raw []byte) {
		st, err := decodeCkpt(schema, fp, 0xabcd1234, raw)
		if err != nil {
			return
		}
		if st.window < 0 || len(st.reservoir) < 0 {
			t.Fatalf("accepted nonsense state: %+v", st)
		}
		if st.tree != nil {
			if err := st.tree.Validate(); err != nil {
				t.Fatalf("accepted invalid tree: %v", err)
			}
		}
		if st.lastPub != nil {
			if err := st.lastPub.Validate(); err != nil {
				t.Fatalf("accepted invalid last-published tree: %v", err)
			}
		}
		if re := encodeCkpt(fp, st.srcCRC, st); !bytes.Equal(re, raw) {
			t.Fatalf("accepted %d bytes that re-encode to %d different bytes", len(raw), len(re))
		}
	})
}

// TestCheckpointDriftStateRoundTrip pins the v2 trailing fields: detector
// floats bit-exact, the drift-pending flag, and the last-published model.
func TestCheckpointDriftStateRoundTrip(t *testing.T) {
	g, err := datagen.New(datagen.Config{Function: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	data := g.Generate(300)
	tr, _, err := clouds.BuildInCore(clouds.Config{Seed: 1, MaxDepth: 4}, data, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := &ckptState{
		window: 5, nextIdx: 2000, tree: tr, reservoir: data.Records[:10],
		det:     phDetector{n: 3, sum: 0.68, m: -0.0666666666666667, min: -0.0666666666666667},
		lastPub: tr, lastPubWin: 4, driftPending: true,
	}
	got, err := decodeCkpt(data.Schema, 1, 0, encodeCkpt(1, 0, st))
	if err != nil {
		t.Fatal(err)
	}
	if got.det != st.det {
		t.Fatalf("detector state %+v, want %+v", got.det, st.det)
	}
	if !got.driftPending || got.lastPubWin != 4 {
		t.Fatalf("driftPending=%v lastPubWin=%d", got.driftPending, got.lastPubWin)
	}
	if got.lastPub == nil || !tree.Equal(got.lastPub, tr) {
		t.Fatal("last-published model did not round-trip")
	}

	// nil lastPub round-trips as nil, not as an empty tree.
	st2 := &ckptState{window: 1, nextIdx: 10}
	got2, err := decodeCkpt(data.Schema, 1, 0, encodeCkpt(1, 0, st2))
	if err != nil {
		t.Fatal(err)
	}
	if got2.lastPub != nil || got2.tree != nil || got2.driftPending {
		t.Fatalf("empty state round-tripped as %+v", got2)
	}
}

// FuzzDecodeSamples hammers the decoder of the window sample blocks peers
// all-gather at every close: garbage must error, never panic; a record
// outside the schema must be refused; and an accepted block must re-encode
// byte-identically.
func FuzzDecodeSamples(f *testing.F) {
	schema := datagen.Schema()
	g, err := datagen.New(datagen.Config{Function: 2, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	recs := g.Generate(3).Records
	good := encodeSamples([]int64{0, 8, 1 << 40}, recs, schema)
	f.Add(good)
	f.Add(encodeSamples(nil, nil, schema))
	f.Add(good[:len(good)-1])
	f.Add(good[:3])
	f.Add([]byte{})
	badClass := append([]byte(nil), good...)
	badClass[len(badClass)-1] = 0x7f // the last record's class, high byte
	f.Add(badClass)
	inflated := append([]byte(nil), good...)
	inflated[3] = 0xff // claim 2^24+ records
	f.Add(inflated)

	f.Fuzz(func(t *testing.T, raw []byte) {
		idxs, recs, err := decodeSamples(raw, schema)
		if err != nil {
			return
		}
		if len(idxs) != len(recs) {
			t.Fatalf("%d indices for %d records", len(idxs), len(recs))
		}
		for i, r := range recs {
			if err := r.Validate(schema); err != nil {
				t.Fatalf("accepted record %d outside the schema: %v", i, err)
			}
		}
		if re := encodeSamples(idxs, recs, schema); !bytes.Equal(re, raw) {
			t.Fatalf("accepted %d bytes that re-encode to %d different bytes", len(raw), len(re))
		}
	})
}
