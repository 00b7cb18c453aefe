package comm

import (
	"fmt"
	"sort"

	"pclouds/internal/costmodel"
)

// SubComm restricts a parent communicator to a subset of its ranks, the way
// task parallelism assigns subtasks to processor subgroups. Ranks are
// renumbered 0..len(ranks)-1 in ascending parent-rank order; collectives
// then run unchanged on the subgroup. Disjoint subgroups of one parent can
// operate concurrently because they use disjoint (from, to) channel pairs.
type SubComm struct {
	parent Communicator
	ranks  []int // parent ranks of the members, ascending
	myIdx  int   // this process's rank within the subgroup
}

// NewSub creates the subgroup view for the calling process. ranks lists the
// parent ranks of the members (any order, deduplicated by the caller); the
// parent's own rank must be included.
func NewSub(parent Communicator, ranks []int) (*SubComm, error) {
	rs := append([]int(nil), ranks...)
	sort.Ints(rs)
	my := -1
	for i, r := range rs {
		if i > 0 && rs[i-1] == r {
			return nil, fmt.Errorf("comm: duplicate rank %d in subgroup", r)
		}
		if r < 0 || r >= parent.Size() {
			return nil, fmt.Errorf("comm: subgroup rank %d outside parent size %d", r, parent.Size())
		}
		if r == parent.Rank() {
			my = i
		}
	}
	if my < 0 {
		return nil, fmt.Errorf("comm: parent rank %d not in subgroup %v", parent.Rank(), rs)
	}
	return &SubComm{parent: parent, ranks: rs, myIdx: my}, nil
}

// Rank implements Communicator (subgroup-local rank).
func (s *SubComm) Rank() int { return s.myIdx }

// Size implements Communicator.
func (s *SubComm) Size() int { return len(s.ranks) }

// Send implements Communicator.
func (s *SubComm) Send(to int, tag Tag, data []byte) error {
	if to < 0 || to >= len(s.ranks) {
		return fmt.Errorf("comm: subgroup send to invalid rank %d (size %d)", to, len(s.ranks))
	}
	return s.parent.Send(s.ranks[to], tag, data)
}

// Recv implements Communicator.
func (s *SubComm) Recv(from int, tag Tag) ([]byte, error) {
	if from < 0 || from >= len(s.ranks) {
		return nil, fmt.Errorf("comm: subgroup recv from invalid rank %d (size %d)", from, len(s.ranks))
	}
	return s.parent.Recv(s.ranks[from], tag)
}

// Clock implements Communicator.
func (s *SubComm) Clock() *costmodel.Clock { return s.parent.Clock() }

// Stats implements Communicator.
func (s *SubComm) Stats() Stats { return s.parent.Stats() }

// CountCall forwards collective-call accounting to the parent, so subgroup
// collectives appear in the rank's per-collective breakdown.
func (s *SubComm) CountCall(cl OpClass) {
	if oc, ok := s.parent.(CallCounter); ok {
		oc.CountCall(cl)
	}
}
