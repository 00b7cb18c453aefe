package pclouds

// Collective corruption verdicts. With Config.Integrity on, every pass over
// frontier files (a level's statistics, alive-collection and partition
// passes, the small-node redistribution — see scanPass) ends in a tiny
// MinLoc collective: each rank contributes +Inf when its scans were clean,
// or its own rank plus a JSON attribution payload when one failed. All ranks therefore agree — in the same round — on
// whether the level's data plane is intact, and when it is not, every rank
// holds the identical root-cause report (rank, file, offset, checksum
// detail) from the lowest-ranked victim. That symmetric error is what lets
// the recovery ladder in Build rewind all ranks together to the newest
// clean checkpoint instead of leaving the survivors blocked in the next
// collective while one rank errors out alone.
//
// The verdict is strictly gated on Config.Integrity so the default build's
// communication volume stays bit-identical with earlier releases.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"pclouds/internal/comm"
	"pclouds/internal/ooc"
)

// maxCorruptionRecoveries bounds the detect→quarantine→restore cycles one
// Build will attempt before surfacing the corruption to the caller.
const maxCorruptionRecoveries = 3

// ErrDataCorrupt is the sentinel for collectively-agreed data-plane
// corruption; every rank's error wraps it, so errors.Is works anywhere.
var ErrDataCorrupt = errors.New("pclouds: data corruption detected")

// CorruptionReport is the attribution every rank receives when a verdict
// fails: which rank hit the corruption, in which store file, at what
// physical offset, and the detector's one-line diagnosis (including the
// expected/actual CRC when a checksum mismatch triggered it).
type CorruptionReport struct {
	Rank   int    `json:"rank"`
	File   string `json:"file"`
	Offset int64  `json:"offset"`
	Detail string `json:"detail"`
}

func (r CorruptionReport) String() string {
	return fmt.Sprintf("rank %d, file %q, offset %d: %s", r.Rank, r.File, r.Offset, r.Detail)
}

// DataCorruptError carries a CorruptionReport; it is the same on every rank
// of the group, courtesy of the MinLoc verdict.
type DataCorruptError struct {
	Report CorruptionReport
}

func (e *DataCorruptError) Error() string {
	return fmt.Sprintf("pclouds: data corruption detected: %s", e.Report)
}

func (e *DataCorruptError) Unwrap() error { return ErrDataCorrupt }

// corruptionReport turns a local scan error into an attribution payload.
func corruptionReport(rank int, name string, err error) CorruptionReport {
	rep := CorruptionReport{Rank: rank, File: name, Detail: err.Error()}
	var ce *ooc.CorruptionError
	if errors.As(err, &ce) {
		rep.File = ce.File
		rep.Offset = ce.Offset
	}
	return rep
}

// dataVerdict is the collective: scanErr is this rank's local outcome for
// scanning name (nil when clean). Every rank must call it the same number
// of times per level — the SPMD structure of the build guarantees this, as
// every pass runs on every rank. It returns nil only
// when every rank was clean; otherwise the identical *DataCorruptError on
// every rank, built from the lowest-ranked victim's report.
func dataVerdict(c comm.Communicator, name string, scanErr error) error {
	value := math.Inf(1)
	var payload []byte
	if scanErr != nil {
		value = float64(c.Rank())
		rep := corruptionReport(c.Rank(), name, scanErr)
		payload, _ = json.Marshal(rep)
	}
	v, pl, err := comm.MinLoc(c, value, payload)
	if err != nil {
		return err
	}
	if math.IsInf(v, 1) {
		return nil
	}
	var rep CorruptionReport
	if jerr := json.Unmarshal(pl, &rep); jerr != nil {
		rep = CorruptionReport{Rank: int(v), Detail: "unattributed data-plane failure"}
	}
	return &DataCorruptError{Report: rep}
}
