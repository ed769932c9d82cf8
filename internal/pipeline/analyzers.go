package pipeline

import (
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/state"
)

// The paper's analyses as engine analyzers. Each embeds the generic
// sharded body (sharded.go) around one internal/analysis reducer and
// adds its configuration, its results, and a finish step that reads the
// results off the merged reducer. Every sharded analyzer here is exact:
// its merged result is identical to a single sequential pass, either
// because its state partitions by file handle (the router guarantees a
// file's full history lands on one shard) or because its reduction is
// an integer sum.

// SummaryAnalyzer computes analysis.Summarize over the stream
// (Tables 1 and 2).
type SummaryAnalyzer struct {
	// Days scales per-day averages; it may also be set on the Result
	// after the run when the span is only known then.
	Days float64
	// Result is valid after the run.
	Result *analysis.Summary

	sharded[*analysis.Summary]
}

// Open implements Analyzer.
func (a *SummaryAnalyzer) Open(shards int) []Accumulator { return a.open(a, shards) }

func (a *SummaryAnalyzer) stateKey() string              { return "summary" }
func (a *SummaryAnalyzer) newLike() Analyzer             { return &SummaryAnalyzer{Days: a.Days} }
func (a *SummaryAnalyzer) newReducer() *analysis.Summary { return analysis.NewSummary(a.Days) }
func (a *SummaryAnalyzer) finish(all *analysis.Summary)  { a.Result = all }

// HourlyAnalyzer computes analysis.Hourly over the stream (Table 5,
// Figure 4). Span > 0 fixes the hour buckets at construction; Span == 0
// accumulates open-ended buckets — fold the Result with FixedTo once
// the span is known (it is identical to having fixed it up front,
// because buckets anchor at t=0 either way).
type HourlyAnalyzer struct {
	Span float64
	// Result is valid after the run.
	Result *analysis.HourlySeries

	sharded[*analysis.HourlySeries]
}

// Open implements Analyzer.
func (a *HourlyAnalyzer) Open(shards int) []Accumulator { return a.open(a, shards) }

func (a *HourlyAnalyzer) stateKey() string                  { return "hourly" }
func (a *HourlyAnalyzer) newLike() Analyzer                 { return &HourlyAnalyzer{Span: a.Span} }
func (a *HourlyAnalyzer) finish(all *analysis.HourlySeries) { a.Result = all }

func (a *HourlyAnalyzer) newReducer() *analysis.HourlySeries {
	if a.Span > 0 {
		return analysis.NewHourly(a.Span)
	}
	return analysis.NewHourlyOpen()
}

// RunsAnalyzer detects access runs (Table 3, Figures 2 and 5) in the
// per-file access lists the shards collect.
type RunsAnalyzer struct {
	Config analysis.RunConfig
	// Result is valid after the run.
	Result []analysis.Run

	sharded[analysis.AccessMap]
}

// Open implements Analyzer.
func (a *RunsAnalyzer) Open(shards int) []Accumulator { return a.open(a, shards) }

// Table reports Tabulate over the detected runs.
func (a *RunsAnalyzer) Table() analysis.RunTable { return analysis.Tabulate(a.Result) }

func (a *RunsAnalyzer) stateKey() string               { return "runs" }
func (a *RunsAnalyzer) newLike() Analyzer              { return &RunsAnalyzer{Config: a.Config} }
func (a *RunsAnalyzer) newReducer() analysis.AccessMap { return make(analysis.AccessMap) }

func (a *RunsAnalyzer) finish(all analysis.AccessMap) {
	a.Result = analysis.DetectRunsInFiles(all, a.Config)
}

func (a *RunsAnalyzer) encodeHeader(e *state.Encoder) {
	e.F64(a.Config.ReorderWindow)
	e.F64(a.Config.IdleGap)
	e.Varint(a.Config.JumpBlocks)
}

func (a *RunsAnalyzer) decodeHeader(d *state.Decoder) {
	rw, ig, jb := d.F64(), d.F64(), d.Varint()
	if d.Err() == nil && (rw != a.Config.ReorderWindow || ig != a.Config.IdleGap || jb != a.Config.JumpBlocks) {
		d.Failf("run config (window=%v gap=%v k=%v) does not match receiver (window=%v gap=%v k=%v)",
			rw, ig, jb, a.Config.ReorderWindow, a.Config.IdleGap, a.Config.JumpBlocks)
	}
}

// ReorderSweepAnalyzer measures swapped accesses per reorder-window
// size (Figure 1). Sorting windows apply per file, so the sweep runs
// over the per-file access lists the shards collect.
type ReorderSweepAnalyzer struct {
	WindowsMS []float64
	// Result is valid after the run.
	Result []analysis.ReorderSweepPoint

	sharded[analysis.AccessMap]
}

// Open implements Analyzer.
func (a *ReorderSweepAnalyzer) Open(shards int) []Accumulator { return a.open(a, shards) }

func (a *ReorderSweepAnalyzer) stateKey() string { return "reorder" }
func (a *ReorderSweepAnalyzer) newLike() Analyzer {
	return &ReorderSweepAnalyzer{WindowsMS: a.WindowsMS}
}
func (a *ReorderSweepAnalyzer) newReducer() analysis.AccessMap { return make(analysis.AccessMap) }

func (a *ReorderSweepAnalyzer) finish(all analysis.AccessMap) {
	swaps, total := analysis.SweepFiles(all, a.WindowsMS)
	a.Result = analysis.SweepPoints(a.WindowsMS, swaps, total)
}

func (a *ReorderSweepAnalyzer) encodeHeader(e *state.Encoder) {
	e.Uvarint(uint64(len(a.WindowsMS)))
	for _, w := range a.WindowsMS {
		e.F64(w)
	}
}

func (a *ReorderSweepAnalyzer) decodeHeader(d *state.Decoder) {
	n := d.Count("window count")
	if d.Err() == nil && n != len(a.WindowsMS) {
		d.Failf("window count %d does not match receiver's %d", n, len(a.WindowsMS))
		return
	}
	for i := 0; i < n && d.Err() == nil; i++ {
		if w := d.F64(); d.Err() == nil && w != a.WindowsMS[i] {
			d.Failf("window %d is %vms, receiver has %vms", i, w, a.WindowsMS[i])
		}
	}
}

// BlockLifeAnalyzer runs the create-based block-lifetime analysis
// (Table 4, Figure 3). Block state is per file, and the router delivers
// removes and renames to the owning shard, so per-shard streams merge
// exactly.
type BlockLifeAnalyzer struct {
	Start, Phase, Margin float64
	// Result is valid after the run.
	Result *analysis.BlockLifeResult

	sharded[*analysis.BlockLifeStream]
}

// Open implements Analyzer.
func (a *BlockLifeAnalyzer) Open(shards int) []Accumulator { return a.open(a, shards) }

func (a *BlockLifeAnalyzer) stateKey() string                     { return "blocklife" }
func (a *BlockLifeAnalyzer) sequential()                          {}
func (a *BlockLifeAnalyzer) finish(all *analysis.BlockLifeStream) { a.Result = all.Result() }

func (a *BlockLifeAnalyzer) newLike() Analyzer {
	return &BlockLifeAnalyzer{Start: a.Start, Phase: a.Phase, Margin: a.Margin}
}

func (a *BlockLifeAnalyzer) newReducer() *analysis.BlockLifeStream {
	return analysis.NewBlockLifeStream(a.Start, a.Phase, a.Margin)
}

// prune drops, before encoding, the bindings of a shard's (dir, name) →
// file map that the global stream has since rebound or removed (the
// superseding op routed to a different shard). The router sees every
// binding event in order, so it is the arbiter: only bindings it still
// agrees with survive, which is exactly the map a single-shard run
// would hold.
func (a *BlockLifeAnalyzer) prune(part *analysis.BlockLifeStream, rt *router) {
	part.PruneNames(func(dir core.FH, name string, child core.FH) bool {
		return rt.names[binding{dir, name}] == child
	})
}

// PeakHourAnalyzer counts peak-hour file instances by category
// (Table 1). Instance sets partition by handle, so shard sets union.
type PeakHourAnalyzer struct {
	From, To float64
	// Result is valid after the run.
	Result analysis.PeakHourResult

	sharded[*analysis.PeakHourInstances]
}

// Open implements Analyzer.
func (a *PeakHourAnalyzer) Open(shards int) []Accumulator { return a.open(a, shards) }

func (a *PeakHourAnalyzer) stateKey() string                       { return "peakhour" }
func (a *PeakHourAnalyzer) newLike() Analyzer                      { return &PeakHourAnalyzer{From: a.From, To: a.To} }
func (a *PeakHourAnalyzer) finish(all *analysis.PeakHourInstances) { a.Result = all.Finish() }

func (a *PeakHourAnalyzer) newReducer() *analysis.PeakHourInstances {
	return analysis.NewPeakHourInstances(a.From, a.To)
}

// MailboxAnalyzer computes the mailbox share of data bytes (Table 1).
type MailboxAnalyzer struct {
	// MailboxBytes and TotalBytes are valid after the run.
	MailboxBytes, TotalBytes uint64

	sharded[*analysis.MailboxShare]
}

// Open implements Analyzer.
func (a *MailboxAnalyzer) Open(shards int) []Accumulator { return a.open(a, shards) }

func (a *MailboxAnalyzer) stateKey() string                   { return "mailbox" }
func (a *MailboxAnalyzer) newLike() Analyzer                  { return &MailboxAnalyzer{} }
func (a *MailboxAnalyzer) newReducer() *analysis.MailboxShare { return analysis.NewMailboxShare() }

func (a *MailboxAnalyzer) finish(all *analysis.MailboxShare) {
	a.MailboxBytes, a.TotalBytes = all.Finish().Share()
}

// HierarchyAnalyzer measures §4.1.1 namespace-reconstruction coverage.
// The hierarchy's state is inherently global — a directory becomes
// "known" through other files' lookups — so this is a GlobalAnalyzer:
// it sees the whole ordered stream on its own goroutine, overlapping
// the sharded work instead of partitioning it.
type HierarchyAnalyzer struct {
	Warmup float64
	// Coverage is valid after the run.
	Coverage float64

	sharded[*analysis.Hierarchy]
}

// Unsharded marks HierarchyAnalyzer as global.
func (a *HierarchyAnalyzer) Unsharded() {}

// Open implements Analyzer.
func (a *HierarchyAnalyzer) Open(shards int) []Accumulator { return a.open(a, shards) }

func (a *HierarchyAnalyzer) stateKey() string                { return "hierarchy" }
func (a *HierarchyAnalyzer) sequential()                     {}
func (a *HierarchyAnalyzer) newLike() Analyzer               { return &HierarchyAnalyzer{Warmup: a.Warmup} }
func (a *HierarchyAnalyzer) newReducer() *analysis.Hierarchy { return analysis.NewHierarchy(a.Warmup) }
func (a *HierarchyAnalyzer) finish(all *analysis.Hierarchy)  { a.Coverage = all.WarmCoverage() }

// NamesAnalyzer runs the §6.3 filename analysis over the stream. Name
// bindings and file instances span directories arbitrarily, so like the
// hierarchy it is a GlobalAnalyzer: one ordered pass on a dedicated
// goroutine, overlapping the sharded analyses.
type NamesAnalyzer struct {
	sharded[*analysis.NamesStream]
}

// Unsharded marks NamesAnalyzer as global.
func (a *NamesAnalyzer) Unsharded() {}

// Open implements Analyzer.
func (a *NamesAnalyzer) Open(shards int) []Accumulator { return a.open(a, shards) }

// ReportAt builds the report as of windowEnd. Valid after the run (or
// any time the stream is quiescent — Report does not consume state).
func (a *NamesAnalyzer) ReportAt(windowEnd float64) *analysis.NameReport {
	return a.parts[0].Report(windowEnd)
}

func (a *NamesAnalyzer) stateKey() string                  { return "names" }
func (a *NamesAnalyzer) sequential()                       {}
func (a *NamesAnalyzer) newLike() Analyzer                 { return &NamesAnalyzer{} }
func (a *NamesAnalyzer) newReducer() *analysis.NamesStream { return analysis.NewNamesStream() }
func (a *NamesAnalyzer) finish(*analysis.NamesStream)      {}
