package stream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"

	"pclouds/internal/comm"
	"pclouds/internal/durable"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// Window checkpoints. After every committed window each rank persists its
// replicated engine state — committed window count, the stream high-water
// mark, the current tree and the sample reservoir — into its own
// subdirectory of Config.CheckpointDir:
//
//	<dir>/rank-<r>/window-<w>.ck
//
// The state is identical on every rank (that is the engine's core
// invariant), but each rank writes its own copy so recovery never depends
// on a shared file being written by the rank that died. On (re)start the
// ranks agree collectively on the newest window every rank still holds and
// can load (durable.Resume, the same agreement as the batch layer's level
// checkpoints, so a hole on one rank is routed around) and all load that
// window; no common window means a collective fresh start.
//
// Lifecycle: after each write the ranks vote (durable.Agree), and only a
// window every rank wrote prunes (durable.Prune) — a rank whose write
// failed holds its peers' older windows in place, so the newest common
// window is always still on every disk. The resume agreement prunes the
// same way: the agreed window and the keepWindows-1 before it survive,
// newer orphans go, and a fresh start removes every window.
//
// File layout (little-endian):
//
//	magic        u64  "PCSTRMW3"
//	fingerprint  u32  config fingerprint; a mismatch refuses to resume
//	sourceCRC    u32  tailed file's v2 header checksum (0 = unbound); a
//	                  mismatch refuses to resume on a swapped dataset
//	window       u32  committed windows
//	nextIdx      i64  global stream index of the first unprocessed record
//	treeLen      u32  tree.Encode bytes (0 = no model yet)
//	tree         treeLen bytes
//	resCount     u32  reservoir records, fixed-width record encoding
//	reservoir    resCount * Schema.RecordBytes() bytes
//	driftPending u8   1 = an adaptive refresh is scheduled
//	detN         i64  Page–Hinkley observation count
//	detSum       f64  Σ error rates (bit-exact, math.Float64bits)
//	detM         f64  cumulative deviation statistic
//	detMin       f64  running minimum of detM
//	lastPubWin   u32  window of the last gate-passed model (0 = none)
//	lastPubLen   u32  tree.Encode bytes of that model (0 = none)
//	lastPub      lastPubLen bytes
//	fileCRC      u32  CRC-32C of every preceding byte; any bit flip in a
//	                  checkpoint is detected at the door
//
// The drift detector and last-published model are part of the replicated
// state machine: the publish gate compares every candidate against the
// last model that passed it, so a resume that lost either would fork the
// published sequence. Encoding the detector's floats bit-exactly keeps
// the resumed alarm window identical to the uninterrupted run's.

const ckptMagic = "PCSTRMW3"

// CheckpointMagic is ckptMagic for scrubbers: the 8 bytes that begin
// every window checkpoint file.
const CheckpointMagic = ckptMagic

// ErrSourceMismatch is returned when a checkpoint was written against a
// different dataset than the one this run reads (the bound v2 header
// checksums differ). Unlike ordinary checkpoint damage — which degrades to
// an older window — a swapped dataset is refused outright: replaying a
// different stream from a retained high-water mark would silently train on
// data the checkpointed state never saw.
var ErrSourceMismatch = errors.New("stream: checkpoint bound to a different dataset")

// keepWindows is how many committed-window checkpoints each rank retains.
// The vote alone keeps the newest common window; the two before it are for
// damage after the commit — a checkpoint lost or corrupt on one rank steps
// the agreement down one window, and holes at different windows on two
// ranks still leave a third window they share.
const keepWindows = 3

// ckptState is the replicated engine state one checkpoint round-trips.
type ckptState struct {
	window       int
	srcCRC       uint32 // dataset fingerprint stored in the file (0 = unbound)
	nextIdx      int64
	tree         *tree.Tree // nil before the first refresh
	reservoir    []record.Record
	det          phDetector
	driftPending bool
	lastPub      *tree.Tree // last gate-passed model; nil before the first publish
	lastPubWin   int
}

// fingerprint hashes every configuration knob that shapes the deterministic
// state machine. Resuming under a different configuration would silently
// diverge the replay, so it is refused instead.
func (cfg *Config) fingerprint() uint32 {
	h := fnv.New32a()
	fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%d|%d|%d|%d",
		cfg.WindowRecords, cfg.SampleEvery, cfg.ReservoirCap, cfg.RefreshEvery,
		cfg.GrowMinRecords, cfg.Clouds.HistBins, cfg.Clouds.Seed, int(cfg.Clouds.Split),
		cfg.Clouds.MaxDepth, cfg.Schema.RecordBytes())
	fmt.Fprintf(h, "|%d|%g|%g|%g",
		cfg.HoldoutEvery, cfg.DriftDelta, cfg.DriftLambda, cfg.GateTolerance)
	return h.Sum32()
}

func rankDir(dir string, rank int) string {
	return filepath.Join(dir, fmt.Sprintf("rank-%03d", rank))
}

func ckptPath(dir string, rank, window int) string {
	return filepath.Join(rankDir(dir, rank), fmt.Sprintf("window-%06d.ck", window))
}

// listWindows lists, ascending, the windows this rank holds a checkpoint
// file for. An unreadable directory holds nothing to resume from.
func listWindows(dir string, rank int) []int {
	windows, _ := durable.Epochs(rankDir(dir, rank), "window-%d.ck")
	return windows
}

func encodeCkpt(fp, srcCRC uint32, st *ckptState) []byte {
	var treeBytes []byte
	if st.tree != nil {
		treeBytes = tree.Encode(st.tree)
	}
	var lastPubBytes []byte
	if st.lastPub != nil {
		lastPubBytes = tree.Encode(st.lastPub)
	}
	res := record.EncodeAll(st.reservoir)
	out := make([]byte, 0, 8+4+4+4+8+4+len(treeBytes)+4+len(res)+1+8+24+4+4+len(lastPubBytes)+4)
	out = append(out, ckptMagic...)
	out = binary.LittleEndian.AppendUint32(out, fp)
	out = binary.LittleEndian.AppendUint32(out, srcCRC)
	out = binary.LittleEndian.AppendUint32(out, uint32(st.window))
	out = binary.LittleEndian.AppendUint64(out, uint64(st.nextIdx))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(treeBytes)))
	out = append(out, treeBytes...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(st.reservoir)))
	out = append(out, res...)
	var pending byte
	if st.driftPending {
		pending = 1
	}
	out = append(out, pending)
	out = binary.LittleEndian.AppendUint64(out, uint64(st.det.n))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(st.det.sum))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(st.det.m))
	out = binary.LittleEndian.AppendUint64(out, math.Float64bits(st.det.min))
	out = binary.LittleEndian.AppendUint32(out, uint32(st.lastPubWin))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(lastPubBytes)))
	out = append(out, lastPubBytes...)
	return binary.LittleEndian.AppendUint32(out, durable.Checksum(out))
}

// VerifyCheckpointBytes checks a window checkpoint's envelope — magic and
// whole-file checksum — without a schema or configuration. The offline
// scrubber's entry point; decodeCkpt performs the same check before
// trusting any field.
func VerifyCheckpointBytes(raw []byte) error {
	if len(raw) < 8+4 || string(raw[:8]) != ckptMagic {
		return fmt.Errorf("stream: not a window checkpoint")
	}
	body, foot := raw[:len(raw)-4], binary.LittleEndian.Uint32(raw[len(raw)-4:])
	if got := durable.Checksum(body); got != foot {
		return fmt.Errorf("stream: checkpoint checksum mismatch (want %08x got %08x)", foot, got)
	}
	return nil
}

func decodeCkpt(schema *record.Schema, fp, srcCRC uint32, src []byte) (*ckptState, error) {
	if err := VerifyCheckpointBytes(src); err != nil {
		return nil, err
	}
	src = src[:len(src)-4] // checksum footer verified above
	if len(src) < 8+4+4+4+8+4 {
		return nil, fmt.Errorf("stream: truncated window checkpoint")
	}
	src = src[8:]
	if got := binary.LittleEndian.Uint32(src); got != fp {
		return nil, fmt.Errorf("stream: checkpoint fingerprint %08x does not match configuration %08x (window size, sampling, seed or split changed)", got, fp)
	}
	stored := binary.LittleEndian.Uint32(src[4:])
	if stored != 0 && srcCRC != 0 && stored != srcCRC {
		return nil, fmt.Errorf("%w: checkpoint bound to dataset fingerprint %08x, this run reads %08x", ErrSourceMismatch, stored, srcCRC)
	}
	st := &ckptState{srcCRC: stored}
	st.window = int(binary.LittleEndian.Uint32(src[8:]))
	st.nextIdx = int64(binary.LittleEndian.Uint64(src[12:]))
	treeLen := int(binary.LittleEndian.Uint32(src[20:]))
	src = src[24:]
	if len(src) < treeLen+4 {
		return nil, fmt.Errorf("stream: truncated checkpoint tree")
	}
	if treeLen > 0 {
		t, err := tree.Decode(schema, src[:treeLen])
		if err != nil {
			return nil, fmt.Errorf("stream: checkpoint tree: %w", err)
		}
		// Validate at the door: a bit-flipped checkpoint that still decodes
		// would otherwise resume and only fail windows later at the commit
		// gate. Rejecting here degrades recovery to an older checkpoint.
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("stream: checkpoint tree: %w", err)
		}
		st.tree = t
	}
	src = src[treeLen:]
	resCount := int(binary.LittleEndian.Uint32(src))
	src = src[4:]
	resLen := resCount * schema.RecordBytes()
	if resCount < 0 || resLen < 0 || len(src) < resLen {
		return nil, fmt.Errorf("stream: checkpoint reservoir: %d bytes for %d records", len(src), resCount)
	}
	recs, err := record.DecodeAll(schema, src[:resLen])
	if err != nil {
		return nil, fmt.Errorf("stream: checkpoint reservoir: %w", err)
	}
	st.reservoir = recs
	src = src[resLen:]
	if len(src) < 1+8+24+4+4 {
		return nil, fmt.Errorf("stream: truncated checkpoint drift state")
	}
	st.driftPending = src[0] != 0
	st.det.n = int64(binary.LittleEndian.Uint64(src[1:]))
	st.det.sum = math.Float64frombits(binary.LittleEndian.Uint64(src[9:]))
	st.det.m = math.Float64frombits(binary.LittleEndian.Uint64(src[17:]))
	st.det.min = math.Float64frombits(binary.LittleEndian.Uint64(src[25:]))
	st.lastPubWin = int(binary.LittleEndian.Uint32(src[33:]))
	lastPubLen := int(binary.LittleEndian.Uint32(src[37:]))
	src = src[41:]
	if lastPubLen < 0 || len(src) != lastPubLen {
		return nil, fmt.Errorf("stream: checkpoint last-published model: %d bytes, header says %d", len(src), lastPubLen)
	}
	if lastPubLen > 0 {
		t, err := tree.Decode(schema, src)
		if err != nil {
			return nil, fmt.Errorf("stream: checkpoint last-published model: %w", err)
		}
		if err := t.Validate(); err != nil {
			return nil, fmt.Errorf("stream: checkpoint last-published model: %w", err)
		}
		st.lastPub = t
	}
	return st, nil
}

// checkpoint persists the committed window's replicated state and votes
// (durable.Agree); only a window every rank wrote prunes. A failed write is
// degraded mode — logged and voted down, never fatal — so only a
// communication failure is an error.
func (e *engine) checkpoint() error {
	dir, rank := e.cfg.CheckpointDir, e.c.Rank()
	st := &ckptState{
		window: e.window, nextIdx: e.nextIdx, tree: e.tree, reservoir: e.reservoir,
		det: e.det, driftPending: e.driftPending, lastPub: e.lastPub, lastPubWin: e.lastPubWin,
	}
	werr := writeCkpt(dir, rank, e.fp, e.cfg.SourceChecksum, st)
	if werr != nil {
		e.cfg.Logf("stream: rank %d: window %d checkpoint failed (continuing): %v", rank, e.window, werr)
	}
	committed, err := durable.Agree(e.c, werr == nil)
	if committed {
		pruneWindows(dir, rank, e.window, keepWindows)
	}
	return err
}

// writeCkpt persists st atomically (durable.WriteFile) into this rank's
// checkpoint directory.
func writeCkpt(dir string, rank int, fp, srcCRC uint32, st *ckptState) error {
	if err := os.MkdirAll(rankDir(dir, rank), 0o755); err != nil {
		return err
	}
	return durable.WriteFile(ckptPath(dir, rank, st.window), encodeCkpt(fp, srcCRC, st))
}

// pruneWindows applies the retention policy (durable.Prune) to this rank's
// window checkpoints once the group agreed on window newest.
func pruneWindows(dir string, rank, newest, keep int) {
	durable.Prune(listWindows(dir, rank), newest, keep, func(w int) { os.Remove(ckptPath(dir, rank, w)) })
}

// agreeResume runs durable.Resume over this rank's retained windows that
// load under the current configuration (a corrupt checkpoint degrades to an
// older window) and returns the agreed window's state. A window bound to a
// different dataset ends the resume with ErrSourceMismatch: every older
// window carries the same binding, and a fresh start would mask a swapped
// input file. The agreed window prunes (pruneWindows); with no common
// window every rank removes all its windows, so stale state cannot
// resurface after the replayed stream diverges.
func agreeResume(cfg *Config, c comm.Communicator) (*ckptState, error) {
	fp := cfg.fingerprint()
	states := map[int]*ckptState{}
	swapped := map[int]error{}
	var have []int
	for _, w := range listWindows(cfg.CheckpointDir, c.Rank()) {
		raw, err := os.ReadFile(ckptPath(cfg.CheckpointDir, c.Rank(), w))
		if err != nil {
			continue
		}
		st, err := decodeCkpt(cfg.Schema, fp, cfg.SourceChecksum, raw)
		switch {
		case errors.Is(err, ErrSourceMismatch):
			swapped[w] = err
		case err != nil || st.window != w:
			continue
		default:
			states[w] = st
		}
		have = append(have, w)
	}
	w, err := durable.Resume(c, have, func(w int) error {
		if err := swapped[w]; err != nil {
			return durable.Fatal(err)
		}
		return nil
	})
	if errors.Is(err, durable.ErrNoEpoch) {
		pruneWindows(cfg.CheckpointDir, c.Rank(), 0, 0)
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	pruneWindows(cfg.CheckpointDir, c.Rank(), w, keepWindows)
	return states[w], nil
}
