package scrub

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"pclouds/internal/costmodel"
	"pclouds/internal/datagen"
	"pclouds/internal/durable"
	"pclouds/internal/ooc"
	"pclouds/internal/stream"
	"pclouds/internal/tree"
)

// writeFixtures populates dir with one clean artifact of every kind the
// scrubber classifies and returns the paths of the checksum-protected ones
// (the files where an injected flip must be detected).
func writeFixtures(t *testing.T, dir string) map[string]string {
	t.Helper()
	g, err := datagen.New(datagen.Config{Function: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	d := g.Generate(500)

	// Checksummed v2 record file.
	var buf bytes.Buffer
	if err := d.WriteBinaryV2(&buf, 11); err != nil {
		t.Fatal(err)
	}
	recPath := filepath.Join(dir, "train.bin")
	if err := os.WriteFile(recPath, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// ooc frame stream, written through the verifying backend.
	store, err := ooc.NewFileStore(d.Schema, dir, costmodel.Zero(), nil)
	if err != nil {
		t.Fatal(err)
	}
	store.EnableIntegrity(ooc.IntegrityOptions{})
	w, err := store.CreateWriter("frontier")
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range d.Records {
		if err := w.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Serialised model with checksum footer.
	modelPath := filepath.Join(dir, "model.pcm")
	tr := &tree.Tree{Schema: d.Schema, Root: &tree.Node{ClassCounts: []int64{3, 1}, N: 4}}
	if err := tree.SaveFile(tr, modelPath); err != nil {
		t.Fatal(err)
	}

	// Batch-checkpoint partial tree (level-NNNN/tree.bin): EncodePartial +
	// checksum footer, no leading magic; the right child is still pending.
	partial := &tree.Tree{Schema: d.Schema, Root: &tree.Node{
		Splitter:    &tree.Splitter{Kind: tree.NumericSplit, Attr: 0, Threshold: 30},
		N:           400,
		ClassCounts: []int64{300, 100},
		Left:        &tree.Node{N: 300, ClassCounts: []int64{300, 0}},
	}}
	partialPath := filepath.Join(dir, "tree.bin")
	if err := os.WriteFile(partialPath, tree.AppendChecksum(tree.EncodePartial(partial)), 0o644); err != nil {
		t.Fatal(err)
	}

	// Stream window checkpoint envelope (magic + body + file checksum).
	body := append([]byte(stream.CheckpointMagic), make([]byte, 64)...)
	ckptPath := filepath.Join(dir, "window-000003.ckpt")
	if err := os.WriteFile(ckptPath, binary.LittleEndian.AppendUint32(body, durable.Checksum(body)), 0o644); err != nil {
		t.Fatal(err)
	}

	// Unprotected artifacts: a JSON manifest, a legacy v1 record file, and
	// a file the online path already quarantined.
	if err := os.WriteFile(filepath.Join(dir, "rank0.json"), []byte(`{"version":2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "legacy.bin"), bytes.Repeat([]byte{0xff}, 256), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(durable.QuarantineName(filepath.Join(dir, "bad")), []byte("whatever"), 0o644); err != nil {
		t.Fatal(err)
	}

	return map[string]string{
		"record-v2":    recPath,
		"ooc-frames":   filepath.Join(dir, "frontier"),
		"model":        modelPath,
		"partial-tree": partialPath,
		"stream-ckpt":  ckptPath,
	}
}

func TestScrubCleanFixtures(t *testing.T) {
	dir := t.TempDir()
	writeFixtures(t, dir)
	results, sum, err := Dir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Fail != 0 {
		t.Fatalf("clean fixture dir failed scrub: %+v\n%v", sum, results)
	}
	want := map[string]Status{
		"record-v2": StatusOK, "ooc-frames": StatusOK, "model": StatusOK,
		"partial-tree": StatusOK, "stream-ckpt": StatusOK, "json": StatusNote, "unknown": StatusNote,
		"quarantined": StatusSkip,
	}
	got := map[string]Status{}
	for _, r := range results {
		got[r.Kind] = r.Status
	}
	for kind, status := range want {
		if got[kind] != status {
			t.Errorf("kind %s: status %s, want %s", kind, got[kind], status)
		}
	}
}

// TestScrubFindsEveryInjectedCorruption is the acceptance criterion: a
// single flipped byte anywhere past the magic in any protected artifact
// must be a FAIL — head, interior, and tail of each file — and a flipped
// magic byte must demote the file to unverifiable, never pass it as OK.
func TestScrubFindsEveryInjectedCorruption(t *testing.T) {
	cleanDir := t.TempDir()
	protected := writeFixtures(t, cleanDir)
	// Offsets past each format's magic: header field, interior, last byte.
	// A partial tree has no magic: its flips start at the head.
	magicLen := map[string]int{"record-v2": 8, "ooc-frames": 4, "model": 4, "partial-tree": 0, "stream-ckpt": 8}

	badDir := t.TempDir()
	var wantFail int
	for kind, src := range protected {
		raw, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for i, off := range []int{magicLen[kind], len(raw) / 2, len(raw) - 1} {
			bad := append([]byte(nil), raw...)
			bad[off] ^= 0x20
			p := filepath.Join(badDir, kind+string(rune('a'+i)))
			if err := os.WriteFile(p, bad, 0o644); err != nil {
				t.Fatal(err)
			}
			wantFail++
		}
	}
	// Malformed manifest.
	if err := os.WriteFile(filepath.Join(badDir, "rank0.json"), []byte(`{"version":`), 0o644); err != nil {
		t.Fatal(err)
	}
	wantFail++

	results, sum, err := Dir(badDir)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Fail != wantFail {
		t.Errorf("detected %d of %d injected corruptions", sum.Fail, wantFail)
	}
	for _, r := range results {
		if r.Status != StatusFail {
			t.Errorf("%s (%s): %s %s — corruption passed the scrub", r.Path, r.Kind, r.Status, r.Detail)
		}
	}

	// A flip inside the magic itself reclassifies the file as unverifiable;
	// the scrub must report that, not pass it.
	raw, err := os.ReadFile(protected["record-v2"])
	if err != nil {
		t.Fatal(err)
	}
	raw[0] ^= 0x01
	p := filepath.Join(t.TempDir(), "wiped-magic.bin")
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if r := File(p); r.Status == StatusOK {
		t.Errorf("wiped magic scrubbed as OK: %+v", r)
	}
}

// TestScrubSkipsInterruptedWriteTemps: the temporary a crash leaves between
// an atomic write's create and rename is never loaded (the serving
// registry and the checkpoint listings skip it), so the scrub skips it too
// instead of failing it as a truncated model.
func TestScrubSkipsInterruptedWriteTemps(t *testing.T) {
	dir := t.TempDir()
	protected := writeFixtures(t, dir)
	raw, err := os.ReadFile(protected["model"])
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "model-w000001.tree.tmp-1234567")
	if err := os.WriteFile(tmp, raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if r := File(tmp); r.Status != StatusSkip || r.Kind != "temp" {
		t.Fatalf("interrupted-write temporary scrubbed as %+v, want a temp SKIP", r)
	}
	if _, sum, err := Dir(dir); err != nil || sum.Fail != 0 {
		t.Fatalf("clean directory with a stray temporary: %+v (%v)", sum, err)
	}
}
