package clouds

import (
	"fmt"
	"math/rand"

	"pclouds/internal/gini"
	"pclouds/internal/obs"
	"pclouds/internal/record"
	"pclouds/internal/tree"
)

// Method selects how splitting points of numeric attributes are derived at
// large nodes.
type Method int

const (
	// SS samples the splitting points: gini is evaluated only at interval
	// boundaries (one pass over the node data).
	SS Method = iota
	// SSE adds estimation: a gini lower bound prunes intervals, and only
	// the surviving "alive" intervals are searched exactly (at most one
	// extra pass). SSE is the method pCLOUDS builds on.
	SSE
)

func (m Method) String() string {
	switch m {
	case SS:
		return "SS"
	case SSE:
		return "SSE"
	default:
		return fmt.Sprintf("Method(%d)", int(m))
	}
}

// SplitMethod selects the split-finding protocol for large nodes: how much
// statistics volume crosses the wire (in pCLOUDS) before a splitting point
// is chosen. It is orthogonal to Method, which only applies to SplitSSE.
type SplitMethod int

const (
	// SplitSSE is the paper's exact protocol: SS/SSE interval statistics,
	// boundary evaluation under the configured replication scheme, and the
	// alive-interval exact search with point shipping.
	SplitSSE SplitMethod = iota
	// SplitHist replaces the SSE refinement rounds with fixed-bin quantized
	// feature histograms: per frontier node, each rank accumulates class
	// frequencies over HistBins quantile bins (built once per node from the
	// node's shared sample), the histograms merge associatively in a single
	// all-reduce, and every rank evaluates the merged boundaries
	// identically. No alive search, no point shipping; the split threshold
	// is quantized to a bin edge.
	SplitHist
	// SplitVote is PV-Tree-style two-round top-k attribute voting over the
	// same fixed-bin histograms: each rank nominates its VoteTopK locally
	// best attributes (one tiny all-gather), a deterministic majority
	// election picks up to 2*VoteTopK global candidates, and full interval
	// statistics are exchanged only for the elected attributes. The split
	// is exact over the elected set; attributes that look poor on every
	// rank are never shipped.
	SplitVote
)

func (m SplitMethod) String() string {
	switch m {
	case SplitSSE:
		return "sse"
	case SplitHist:
		return "hist"
	case SplitVote:
		return "vote"
	default:
		return fmt.Sprintf("SplitMethod(%d)", int(m))
	}
}

// ParseSplitMethod maps the -split-method flag values to SplitMethod.
func ParseSplitMethod(s string) (SplitMethod, error) {
	switch s {
	case "sse":
		return SplitSSE, nil
	case "hist":
		return SplitHist, nil
	case "vote":
		return SplitVote, nil
	default:
		return SplitSSE, fmt.Errorf("clouds: unknown split method %q (want sse, hist, or vote)", s)
	}
}

// Config parameterises tree construction. The zero value is not usable; see
// Defaults.
type Config struct {
	// Method is the large-node splitting method (SS or SSE). It applies
	// only when Split is SplitSSE.
	Method Method
	// Split selects the split-finding protocol (exact SSE, fixed-bin
	// histograms, or attribute voting). The zero value is SplitSSE.
	Split SplitMethod
	// HistBins is the per-attribute bin count of the SplitHist and
	// SplitVote histograms. It is fixed — unlike QForNode it does not grow
	// with node size — so the mergeable payload stays constant per node.
	// 0 means 16.
	HistBins int
	// VoteTopK is the number of attributes each rank nominates per node
	// under SplitVote; up to 2*VoteTopK attributes win the election.
	// 0 means 2.
	VoteTopK int
	// QRoot is the number of intervals per numeric attribute at the root
	// (the paper uses 10,000 for 3.6–7.2M records).
	QRoot int
	// QMin floors the interval count of large nodes.
	QMin int
	// SmallNodeQ is the mixed-parallelism switch threshold, expressed — as
	// in the paper — in intervals: a node whose interval count would fall
	// below this is a "small node", solved in-memory with the direct
	// method (and, in pCLOUDS, shipped to a single processor).
	SmallNodeQ int
	// SampleSize is the size of the pre-drawn random sample used to build
	// intervals. 0 derives it as 10×QRoot capped at the dataset size.
	SampleSize int
	// MinNodeSize makes any node with fewer records a leaf (default 2).
	MinNodeSize int64
	// MaxDepth caps tree depth; 0 means unlimited.
	MaxDepth int
	// Seed drives sample drawing when the caller does not pre-draw one.
	Seed int64
	// Trace, when non-nil, records coarse spans for this builder's work
	// (whole in-core builds, shipped small-node subtrees). pCLOUDS threads
	// its per-rank recorder through here so direct-method work appears
	// nested under the small-node phase. Nil costs one comparison per
	// build.
	Trace *obs.Recorder
}

// Defaults returns a configuration suitable for datasets of ~10^4..10^6
// records.
func Defaults() Config {
	return Config{
		Method:      SSE,
		QRoot:       200,
		QMin:        25,
		SmallNodeQ:  10,
		MinNodeSize: 2,
		Seed:        1,
	}
}

// WithDefaults returns c with unset fields filled from Defaults. Drivers in
// other packages (pCLOUDS) call it so that all builders resolve parameters
// identically.
func (c Config) WithDefaults() Config {
	d := Defaults()
	if c.QRoot <= 0 {
		c.QRoot = d.QRoot
	}
	if c.QMin <= 0 {
		c.QMin = d.QMin
	}
	if c.SmallNodeQ <= 0 {
		c.SmallNodeQ = d.SmallNodeQ
	}
	if c.MinNodeSize <= 0 {
		c.MinNodeSize = d.MinNodeSize
	}
	if c.HistBins <= 0 {
		c.HistBins = 16
	}
	if c.VoteTopK <= 0 {
		c.VoteTopK = 2
	}
	return c
}

// QForNode returns the node's interval count: proportional to node size (as
// in CLOUDS, q decreases with the node) floored at QMin.
func (c Config) QForNode(nNode, nRoot int64) int {
	if nRoot <= 0 {
		return c.QMin
	}
	q := int(int64(c.QRoot) * nNode / nRoot)
	if q < c.QMin {
		q = c.QMin
	}
	return q
}

// NodeQ returns the number of intervals per numeric attribute a large
// node's statistics accumulate over: the size-proportional QForNode under
// SplitSSE, the fixed HistBins under hist and vote. Every builder asks it,
// so a node counts over the same intervals wherever it is built.
func (c Config) NodeQ(nNode, nRoot int64) int {
	if c.Split != SplitSSE {
		return c.HistBins
	}
	return c.QForNode(nNode, nRoot)
}

// IsSmall reports whether a node of nNode records (out of nRoot at the
// root) is a small node under the paper's interval-count criterion.
func (c Config) IsSmall(nNode, nRoot int64) bool {
	if nRoot <= 0 {
		return true
	}
	return int64(c.QRoot)*nNode/nRoot < int64(c.SmallNodeQ)
}

// SampleFor draws the pre-drawn random sample the interval structures are
// built from. Callers that need p-independent parallel builds draw the
// sample once from the full dataset and share it.
func (c Config) SampleFor(data *record.Dataset) []record.Record {
	rows := c.SampleRows(data.Len())
	out := make([]record.Record, len(rows))
	for i, r := range rows {
		out[i] = data.Records[r]
	}
	return out
}

// SampleRows draws the rows of an n-row dataset that SampleFor's sample
// holds, in the sample's order.
func (c Config) SampleRows(n int) []int {
	k := c.SampleSize
	if k <= 0 {
		k = 10 * c.QRoot
		if k <= 0 {
			k = 2000
		}
	}
	return record.SampleRows(n, k, rand.New(rand.NewSource(c.Seed)))
}

// BuildStats aggregates diagnostics of one tree construction.
type BuildStats struct {
	// Nodes and Leaves count the finished tree.
	Nodes, Leaves int
	// LargeNodes were processed with SS/SSE; SmallNodes with the direct
	// in-memory method.
	LargeNodes, SmallNodes int
	// RecordReads counts every record touched by a statistics, alive-
	// collection, or partition pass — the "amount of I/O" proxy.
	RecordReads int64
	// AlivePoints and BoundaryEvaluated drive the survival ratio
	// (AlivePoints / BoundaryEvaluated) of the SSE method.
	AlivePoints, BoundaryEvaluated int64
	// AliveIntervals counts intervals searched exactly.
	AliveIntervals int
	// MaxAlivePoints is the largest number of alive points any single node
	// produced — the peak in-memory footprint of the SSE exact search.
	MaxAlivePoints int64
	// MaxDepth is the deepest node built.
	MaxDepth int
}

// SurvivalRatio returns AlivePoints/BoundaryEvaluated (0 when nothing was
// evaluated).
func (s *BuildStats) SurvivalRatio() float64 {
	if s.BoundaryEvaluated == 0 {
		return 0
	}
	return float64(s.AlivePoints) / float64(s.BoundaryEvaluated)
}

type builder struct {
	cfg    Config
	schema *record.Schema
	nRoot  int64
	stats  BuildStats
	// cut, when positive, is the depth at which build leaves nodes
	// unbuilt and collects them in tasks (BuildTop).
	cut   int
	tasks []*Task
}

// BuildInCore constructs a CLOUDS decision tree over an in-memory dataset.
// sample is the pre-drawn random sample used to build interval structures;
// pass nil to let the builder draw one from cfg.Seed. The records are
// presorted once, beside the sample, and every node is split from the
// sorted columns.
func BuildInCore(cfg Config, data *record.Dataset, sample []record.Record) (*tree.Tree, *BuildStats, error) {
	cfg = cfg.WithDefaults()
	if data.Len() == 0 {
		return nil, nil, fmt.Errorf("clouds: empty training set")
	}
	if sample == nil {
		sample = cfg.SampleFor(data)
	}
	b := &builder{cfg: cfg, schema: data.Schema, nRoot: int64(data.Len())}
	span := cfg.Trace.Start("incore-build")
	root := b.build(Presort(data.Schema, data.Records), Presort(data.Schema, sample), 0)
	span.End()
	t := &tree.Tree{Schema: data.Schema, Root: root}
	st := b.stats
	return t, &st, nil
}

// Task is a node that BuildTop left unbuilt at its cut depth: the node's
// presorted rows and sample (nil below a small node) and its depth.
type Task struct {
	Data, Sample *Presorted
	Depth        int
	at           *tree.Node // the node's placeholder in the tree
}

// Attach puts the task's subtree into the tree in place of its placeholder.
func (t *Task) Attach(root *tree.Node) { *t.at = *root }

// BuildTop runs the in-core recursion over a presorted root, data and
// sample, down to depth cut: a node it reaches at depth cut is not built
// but returned as a Task, in preorder, with a placeholder in the tree.
// BuildSubtree over each task with nRoot data.Len(), attached, gives the
// tree BuildInCore builds over the same rows and sample; a cut of 0 or
// less builds the whole tree. data and sample are split in place.
func BuildTop(cfg Config, schema *record.Schema, data, sample *Presorted, cut int) (*tree.Tree, []*Task) {
	b := &builder{cfg: cfg.WithDefaults(), schema: schema, nRoot: int64(data.Len()), cut: cut}
	root := b.build(data, sample, 0)
	return &tree.Tree{Schema: schema, Root: root}, b.tasks
}

// BuildSubtree builds the subtree of a node's presorted rows starting at
// the given depth, with nRoot the *global* root size so that interval
// counts and small-node decisions match a full build. sample is the node's
// presorted sample. Both are split in place and must not be used
// afterwards. pCLOUDS uses it to solve shipped small nodes on their
// assigned processor, and the stream refresh to build BuildTop's tasks.
func BuildSubtree(cfg Config, schema *record.Schema, data, sample *Presorted, depth int, nRoot int64) (*tree.Node, *BuildStats) {
	cfg = cfg.WithDefaults()
	b := &builder{cfg: cfg, schema: schema, nRoot: nRoot}
	span := cfg.Trace.Start("small-subtree")
	nd := b.build(data, sample, depth)
	span.End()
	st := b.stats
	return nd, &st
}

func (b *builder) leaf(classCounts []int64, n int64) *tree.Node {
	nd := &tree.Node{ClassCounts: gini.Clone(classCounts), N: n}
	nd.Class = nd.Majority()
	b.stats.Nodes++
	b.stats.Leaves++
	return nd
}

// ShouldStop applies the stopping criteria shared by every driver
// (sequential in-core, sequential out-of-core, and pCLOUDS): too few
// records, the depth cap, or a pure node.
func (c Config) ShouldStop(classCounts []int64, n int64, depth int) bool {
	if n < c.MinNodeSize {
		return true
	}
	if c.MaxDepth > 0 && depth >= c.MaxDepth {
		return true
	}
	nonzero := 0
	for _, cnt := range classCounts {
		if cnt > 0 {
			nonzero++
		}
	}
	return nonzero <= 1
}

// build constructs the subtree of an in-memory node from its presorted
// rows (data) and its presorted sample: the one in-core recursion. A large
// node counts its statistics off the sorted columns and takes its alive
// points as column ranges (splitLarge); a small node is split with the
// direct method over the same columns. Both children inherit sorted
// columns, and the children of a small node are small too, so their sample
// is no longer split.
func (b *builder) build(data, sample *Presorted, depth int) *tree.Node {
	if b.cut > 0 && depth == b.cut {
		t := &Task{Data: data, Sample: sample, Depth: depth, at: &tree.Node{}}
		b.tasks = append(b.tasks, t)
		return t.at
	}
	if depth > b.stats.MaxDepth {
		b.stats.MaxDepth = depth
	}
	n := int64(data.Len())
	classCounts := data.classCounts(b.schema.NumClasses)
	if b.cfg.ShouldStop(classCounts, n, depth) {
		return b.leaf(classCounts, n)
	}
	small := b.cfg.IsSmall(n, b.nRoot)
	var cand Candidate
	if small {
		b.stats.SmallNodes++
		b.stats.RecordReads += n
		cand = data.directSplit(b.schema)
	} else {
		ns := NewNodeStats(b.schema, sample.Intervals(b.cfg.NodeQ(n, b.nRoot)))
		data.AccumulateStats(ns)
		b.stats.RecordReads += n
		// Column ranges cannot fail, so neither can the split.
		cand, _ = b.splitLarge(ns, func(alive []AliveInterval) ([][]Point, error) {
			runs := make([][]Point, len(alive))
			for s, ai := range alive {
				runs[s] = data.Range(ai.AttrJ, ns.Numeric[ai.AttrJ].Intervals, ai.Interval)
			}
			return runs, nil
		})
	}
	if !cand.Valid {
		return b.leaf(classCounts, n)
	}
	sp := cand.Splitter()
	left, right := data.Split(b.schema, sp)
	b.stats.RecordReads += n
	if left.Len() == 0 || right.Len() == 0 {
		return b.leaf(classCounts, n)
	}
	var leftSample, rightSample *Presorted
	if !small {
		leftSample, rightSample = sample.Split(b.schema, sp)
	}
	nd := &tree.Node{Splitter: sp, ClassCounts: classCounts, N: n}
	nd.Class = nd.Majority()
	b.stats.Nodes++
	nd.Left = b.build(left, leftSample, depth+1)
	nd.Right = b.build(right, rightSample, depth+1)
	return nd
}
