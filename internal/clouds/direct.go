package clouds

import (
	"pclouds/internal/record"
)

// DirectSplit finds the exact best split of an in-memory record set with
// the paper's direct method: it sorts the points along every numeric
// attribute, computes the gini index at every distinct value, and evaluates
// the best categorical subset per categorical attribute. It presorts this
// one node; the builders presort a small task once and split the sorted
// columns instead (Presorted). The returned candidate obeys the
// deterministic total order.
func DirectSplit(schema *record.Schema, recs []record.Record) Candidate {
	return Presort(schema, recs).directSplit(schema)
}
