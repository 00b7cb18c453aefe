package ooc

import (
	"fmt"
	"unsafe"

	"pclouds/internal/record"
)

// MemLimit is the memory-budget ledger: the bytes of training rows one
// processor may hold in main memory, matching the paper's per-processor
// memory. The sequential out-of-core builder (clouds.BuildOutOfCore)
// charges a node's records to it before it loads the node and solves it
// in-core. pCLOUDS charges it once per rank, in the preprocessing pass:
// when the rank's whole root share fits (rows × ResidentRowBytes), the
// rank holds that share presorted in memory for the rest of the build and
// every large node of the rank works on sorted columns; otherwise every
// large node streams from disk, as in the paper. Small nodes are solved
// in-core either way.
//
// MemLimit is owned by one rank goroutine and is not safe for concurrent
// use.
type MemLimit struct {
	limit int64
	used  int64
}

// NewMemLimit creates a ledger with the given byte budget; a non-positive
// budget means unlimited.
func NewMemLimit(bytes int64) *MemLimit {
	return &MemLimit{limit: bytes}
}

// Limit returns the budget (0 or negative = unlimited).
func (m *MemLimit) Limit() int64 { return m.limit }

// Used returns the bytes currently charged.
func (m *MemLimit) Used() int64 { return m.used }

// Fits reports whether n additional bytes would stay within the budget.
func (m *MemLimit) Fits(n int64) bool {
	if m == nil || m.limit <= 0 {
		return true
	}
	return m.used+n <= m.limit
}

// Acquire charges n bytes; it fails if the budget would be exceeded.
func (m *MemLimit) Acquire(n int64) error {
	if m == nil || m.limit <= 0 {
		return nil
	}
	if m.used+n > m.limit {
		return fmt.Errorf("ooc: memory limit exceeded: want %d more bytes, %d of %d used", n, m.used, m.limit)
	}
	m.used += n
	return nil
}

// Release returns n bytes to the budget.
func (m *MemLimit) Release(n int64) {
	if m == nil || m.limit <= 0 {
		return
	}
	m.used -= n
	if m.used < 0 {
		m.used = 0
	}
}

// DefaultMemLimit is pCLOUDS's per-rank budget when its configuration
// leaves the budget at zero: 32 MiB, the byte size of the bound the alive
// exchange already sets on its points (2^21 points of 16 B).
const DefaultMemLimit int64 = 32 << 20

// ResidentRowBytes is what one training row costs a rank that holds its
// share in memory: the record header, its values in the arena, one
// presorted column entry per numeric attribute, its row index and its
// partition flag. For the Agrawal schema (6 numeric, 3 categorical
// attributes) that is 56 + 60 + 96 + 4 + 1 = 217 bytes.
func ResidentRowBytes(s *record.Schema) int64 {
	const columnEntry = 16 // a presorted (value, class, row) entry
	nn, nc := int64(s.NumNumeric()), int64(s.NumCategorical())
	return int64(unsafe.Sizeof(record.Record{})) + 8*nn + 4*nc + columnEntry*nn + 4 + 1
}
