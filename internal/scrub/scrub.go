// Package scrub implements the offline data-plane integrity scrubber: it
// walks a directory of pclouds artifacts, classifies each file by its
// leading magic bytes (or, for batch-checkpoint partial trees, which have
// none, by their trailing checksum footer), and verifies every checksum the
// format carries — record v2 block files, ooc frame streams, serialised
// models, partial trees, and stream window checkpoints. Files without an
// integrity format (legacy v1 record files, arbitrary bytes) are reported
// as unverifiable rather than passed, and files already quarantined by the
// online recovery path, or left behind by an interrupted atomic write, are
// skipped so a scrub after an incident stays clean. The scrubber reads raw
// files on disk; it needs no schema and never mutates anything.
package scrub

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pclouds/internal/durable"
	"pclouds/internal/ooc"
	"pclouds/internal/record"
	"pclouds/internal/stream"
	"pclouds/internal/tree"
)

// Status is the verdict for one file.
type Status string

const (
	// StatusOK: every checksum the format carries verified.
	StatusOK Status = "OK"
	// StatusFail: a checksum mismatch, truncation, or malformed structure.
	StatusFail Status = "FAIL"
	// StatusSkip: not scrubbed (quarantined, or an interrupted write's
	// temporary).
	StatusSkip Status = "SKIP"
	// StatusNote: readable but carrying no checksums to verify.
	StatusNote Status = "NOTE"
)

// Result is the scrub verdict for one file.
type Result struct {
	Path   string
	Kind   string // "record-v2", "ooc-frames", "model", "partial-tree", "stream-ckpt", "json", "quarantined", "temp", "unknown"
	Status Status
	Detail string
}

// Summary tallies results by status.
type Summary struct {
	OK, Fail, Skip, Note int
}

// Add tallies one result.
func (s *Summary) Add(r Result) {
	switch r.Status {
	case StatusOK:
		s.OK++
	case StatusFail:
		s.Fail++
	case StatusSkip:
		s.Skip++
	default:
		s.Note++
	}
}

func (s Summary) String() string {
	return fmt.Sprintf("%d ok, %d failed, %d unverifiable, %d quarantined/skipped",
		s.OK, s.Fail, s.Note, s.Skip)
}

// Dir scrubs every regular file under root (recursively, in sorted order)
// and returns the per-file results with their summary. The error covers
// walking only; per-file read and verification failures are Results.
func Dir(root string) ([]Result, Summary, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.Type().IsRegular() {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, Summary{}, err
	}
	sort.Strings(paths)
	var results []Result
	var sum Summary
	for _, p := range paths {
		r := File(p)
		sum.Add(r)
		results = append(results, r)
	}
	return results, sum, nil
}

// File scrubs one file: classify by magic, verify every checksum.
func File(path string) Result {
	if durable.Quarantined(path) {
		return Result{Path: path, Kind: "quarantined", Status: StatusSkip,
			Detail: "already quarantined by online recovery"}
	}
	if !durable.Live(path) {
		return Result{Path: path, Kind: "temp", Status: StatusSkip,
			Detail: "temporary of an interrupted atomic write; never loaded"}
	}
	f, err := os.Open(path)
	if err != nil {
		return Result{Path: path, Kind: "unknown", Status: StatusFail, Detail: err.Error()}
	}
	defer f.Close()

	head := make([]byte, 8)
	n, err := f.ReadAt(head, 0)
	if err != nil && err != io.EOF {
		return Result{Path: path, Kind: "unknown", Status: StatusFail, Detail: err.Error()}
	}
	head = head[:n]
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return Result{Path: path, Kind: "unknown", Status: StatusFail, Detail: err.Error()}
	}

	switch {
	case len(head) >= 8 && string(head) == record.V2Magic:
		return scrubRecordV2(path, f)
	case len(head) >= 4 && string(head[:4]) == ooc.FrameMagic:
		return scrubFrames(path, f)
	case len(head) >= 8 && string(head) == stream.CheckpointMagic:
		return scrubCheckpoint(path)
	case len(head) >= 4 && binary.LittleEndian.Uint32(head) == tree.ModelMagic:
		return scrubModel(path)
	case hasChecksumFooter(f):
		return scrubPartialTree(path)
	case strings.HasSuffix(path, ".json"):
		return scrubJSON(path)
	default:
		return Result{Path: path, Kind: "unknown", Status: StatusNote,
			Detail: "no integrity format (legacy v1 record file or foreign data); cannot verify"}
	}
}

func scrubRecordV2(path string, f *os.File) Result {
	hdr, records, err := record.VerifyV2Stream(f)
	if err != nil {
		return Result{Path: path, Kind: "record-v2", Status: StatusFail, Detail: err.Error()}
	}
	return Result{Path: path, Kind: "record-v2", Status: StatusOK,
		Detail: fmt.Sprintf("file id %016x, header crc %08x, %d records", hdr.FileID, hdr.CRC, records)}
}

func scrubFrames(path string, f *os.File) Result {
	logical, frames, err := ooc.VerifyFrames(filepath.Base(path), f)
	if err != nil {
		return Result{Path: path, Kind: "ooc-frames", Status: StatusFail, Detail: err.Error()}
	}
	return Result{Path: path, Kind: "ooc-frames", Status: StatusOK,
		Detail: fmt.Sprintf("%d frames, %d logical bytes", frames, logical)}
}

func scrubCheckpoint(path string) Result {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Result{Path: path, Kind: "stream-ckpt", Status: StatusFail, Detail: err.Error()}
	}
	if err := stream.VerifyCheckpointBytes(raw); err != nil {
		return Result{Path: path, Kind: "stream-ckpt", Status: StatusFail, Detail: err.Error()}
	}
	return Result{Path: path, Kind: "stream-ckpt", Status: StatusOK,
		Detail: fmt.Sprintf("%d bytes, file checksum verified", len(raw))}
}

func scrubModel(path string) Result {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Result{Path: path, Kind: "model", Status: StatusFail, Detail: err.Error()}
	}
	payload, hadFooter, err := tree.StripChecksum(raw)
	if err != nil {
		return Result{Path: path, Kind: "model", Status: StatusFail, Detail: err.Error()}
	}
	t, err := tree.Read(bytes.NewReader(payload))
	if err != nil {
		return Result{Path: path, Kind: "model", Status: StatusFail, Detail: err.Error()}
	}
	detail := fmt.Sprintf("%d nodes", t.NumNodes())
	if !hadFooter {
		return Result{Path: path, Kind: "model", Status: StatusNote,
			Detail: detail + "; pre-integrity file without checksum footer (decode-checked only)"}
	}
	return Result{Path: path, Kind: "model", Status: StatusOK, Detail: detail + ", footer checksum verified"}
}

// hasChecksumFooter reports whether f ends in the footer tree.AppendChecksum
// writes: the only mark a batch checkpoint's partial tree (level-NNNN/
// tree.bin, tree.EncodePartial + footer) carries.
func hasChecksumFooter(f *os.File) bool {
	st, err := f.Stat()
	if err != nil || st.Size() < 8 {
		return false
	}
	tag := make([]byte, 4)
	_, err = f.ReadAt(tag, st.Size()-8)
	return err == nil && string(tag) == tree.FooterMagic
}

// scrubPartialTree verifies a partial tree's footer checksum. Decoding it
// needs the build's schema, which the scrubber does not have.
func scrubPartialTree(path string) Result {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Result{Path: path, Kind: "partial-tree", Status: StatusFail, Detail: err.Error()}
	}
	if _, _, err := tree.StripChecksum(raw); err != nil {
		return Result{Path: path, Kind: "partial-tree", Status: StatusFail, Detail: err.Error()}
	}
	return Result{Path: path, Kind: "partial-tree", Status: StatusOK,
		Detail: fmt.Sprintf("%d bytes, footer checksum verified", len(raw))}
}

func scrubJSON(path string) Result {
	raw, err := os.ReadFile(path)
	if err != nil {
		return Result{Path: path, Kind: "json", Status: StatusFail, Detail: err.Error()}
	}
	if !json.Valid(raw) {
		return Result{Path: path, Kind: "json", Status: StatusFail, Detail: "malformed JSON"}
	}
	return Result{Path: path, Kind: "json", Status: StatusNote,
		Detail: "well-formed JSON manifest (content is not checksummed)"}
}
