// Package pipeline is the streaming, sharded trace-processing engine.
//
// The paper's analyses were designed for multi-day, multi-million-record
// traces that could never fit in one pass of one core's cache, and the
// original slice-based flow here (materialize every joined operation,
// then run each analysis over the full slice) mirrored the paper's
// presentation rather than its scale. This package replaces that flow
// with a pipeline:
//
//	records ──► Joiner ──► router ──► shard workers ──► merge
//	            (streaming             (hash by file      (per-shard
//	             call/reply             handle, name-      reducers)
//	             matching)              resolved)
//
// A Joiner matches calls to replies incrementally and emits operations
// in call-time order with bounded reordering state. The router hashes
// each operation to one of N shards by the file handle it concerns —
// resolving remove and rename through a (directory, name) → handle map
// so that an operation always lands on the shard that owns the file it
// affects — and hands workers bounded batches. Each worker feeds its
// shard's accumulator for every registered Analyzer; when the stream
// ends, each analyzer folds its per-shard accumulators into one result.
//
// Determinism is a design requirement, not an accident: every analyzer
// shipped here either partitions exactly by file handle (runs, block
// lifetimes, reorder sweeps, per-file byte accounting) or reduces by
// integer sums whose value is independent of the partitioning (summary
// counts, hourly buckets). Table 1 through Table 5 and Figure 1 through
// Figure 5 therefore produce byte-identical output at any worker count,
// which the tests enforce. Analyses whose state genuinely spans files —
// the §4.1.1 namespace hierarchy — implement GlobalAnalyzer and run on
// a dedicated goroutine over the full ordered stream instead (pipeline
// parallelism rather than data parallelism).
package pipeline

import (
	"io"
	"runtime"

	"repro/internal/core"
)

// Config sizes the engine.
type Config struct {
	// Workers is the shard count; <= 0 selects runtime.GOMAXPROCS(0).
	// One worker reproduces the sequential analysis exactly; any other
	// count produces identical results by construction.
	Workers int
	// BatchSize is the number of ops handed to a worker at a time;
	// <= 0 selects 1024. Larger batches amortize channel overhead,
	// smaller ones bound latency and memory.
	BatchSize int
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) batchSize() int {
	if c.BatchSize > 0 {
		return c.BatchSize
	}
	return 1024
}

// OpSource yields joined operations in call-time order; io.EOF ends the
// stream. SliceOps adapts an in-memory slice; Joiner adapts a record
// stream from a trace file or capture.
type OpSource interface {
	Next() (*core.Op, error)
}

// sliceOps is the in-memory OpSource.
type sliceOps struct {
	ops []*core.Op
	i   int
}

// SliceOps adapts an op slice to OpSource.
func SliceOps(ops []*core.Op) OpSource { return &sliceOps{ops: ops} }

func (s *sliceOps) Next() (*core.Op, error) {
	if s.i >= len(s.ops) {
		return nil, io.EOF
	}
	op := s.ops[s.i]
	s.i++
	return op, nil
}

// Accumulator consumes the operations routed to one shard, in stream
// order. Implementations are never called concurrently. Every
// internal/analysis reducer is one.
type Accumulator interface {
	Add(op *core.Op)
}

// Analyzer is one reduction over the op stream. Open is called once per
// run and returns one accumulator per shard; accumulator i sees exactly
// the operations routed to shard i, in stream order. Close folds the
// accumulators into the analyzer's result. Analyzers are single-use:
// construct a fresh one per run.
type Analyzer interface {
	Open(shards int) []Accumulator
	Close()
}

// GlobalAnalyzer marks analyses whose state cannot be partitioned by
// file handle (for example the namespace hierarchy, where a directory's
// edges are learned from other files' lookups). The engine calls
// Open(1) and streams every operation, in order, to the single
// accumulator on a dedicated goroutine.
type GlobalAnalyzer interface {
	Analyzer
	// Unsharded is a marker; it is never called.
	Unsharded()
}

// Stats summarizes a completed run.
type Stats struct {
	// Ops is the number of operations processed.
	Ops int64
	// MinT and MaxT are the earliest and latest call times seen.
	MinT, MaxT float64
}

// Span reports MaxT - MinT, the trace window in seconds.
func (s Stats) Span() float64 {
	if s.Ops == 0 {
		return 0
	}
	return s.MaxT - s.MinT
}

// router assigns each op to the shard that owns the file it affects.
// Operations that create name → handle bindings are routed by the new
// handle; removes and renames are resolved through the binding map the
// same way the block-lifetime analysis resolves them, so a shard's
// reducers always see the complete story of their files.
type router struct {
	shards uint64
	names  map[binding]core.FH
}

// binding is one (directory, name) edge in the router's name map.
type binding struct {
	dir  core.FH
	name string
}

func newRouter(shards int) *router {
	return &router{
		shards: uint64(shards),
		names:  make(map[binding]core.FH),
	}
}

// mix32 finalizes an interned ID into a well-spread hash (the 32-bit
// murmur3 finalizer). Interned IDs are small dense integers, so without
// mixing, ID % shards would correlate with arrival order.
func mix32(v uint32) uint64 {
	v ^= v >> 16
	v *= 0x85ebca6b
	v ^= v >> 13
	v *= 0xc2b2ae35
	v ^= v >> 16
	return uint64(v)
}

func (r *router) shard(op *core.Op) int {
	fh, byClient := r.key(op)
	if r.shards == 1 {
		// Binding maintenance inside key() still ran, so the map stays
		// bounded and identical whatever the shard count; only the
		// hash is skipped.
		return 0
	}
	if byClient {
		return int(mix32(op.Client^0x9e3779b9) % r.shards)
	}
	return int(mix32(uint32(fh)) % r.shards)
}

// key computes the routing key and maintains the binding map — the two
// are inseparable: routing a remove needs the binding, and the binding
// lifecycle must be identical at every worker count. byClient reports a
// handleless op that routes by client instead.
func (r *router) key(op *core.Op) (fh core.FH, byClient bool) {
	switch op.Proc {
	case core.ProcLookup, core.ProcCreate, core.ProcMkdir, core.ProcSymlink:
		// The op names a (possibly new) file: bind and route by it.
		if op.Name != "" && op.NewFH != 0 {
			r.names[binding{op.FH, op.Name}] = op.NewFH
		}
		if op.NewFH != 0 {
			return op.NewFH, false
		}
	case core.ProcRename:
		// The moved file's shard must see the rename so its binding
		// follows, exactly as blockLifeState.trackNames applies it.
		k := binding{op.FH, op.Name}
		if fh, ok := r.names[k]; ok {
			delete(r.names, k)
			r.names[binding{op.FH2, op.Name2}] = fh
			return fh, false
		}
	case core.ProcRemove, core.ProcRmdir:
		// Route the removal to the shard owning the removed object,
		// dropping the binding only on success — a failed remove
		// leaves the name in place, mirroring the analyses. (The
		// per-shard analyses ignore rmdir, so for them the routing
		// choice is immaterial; resolving it here keeps the binding
		// map from growing forever on mkdir/rmdir churn.)
		k := binding{op.FH, op.Name}
		if fh, ok := r.names[k]; ok {
			if op.OK() {
				delete(r.names, k)
			}
			return fh, false
		}
	}
	if op.FH != 0 {
		return op.FH, false
	}
	// Handleless ops (null, fsstat against the root, ...): spread by
	// client so no shard becomes a hot spot.
	return 0, true
}

// Run streams src through the engine, feeding every analyzer, and
// returns stream statistics. On a source error the workers are drained
// and the error returned; analyzer results are then undefined. Run is
// the batch loop over a Live engine, so the offline path and the
// daemon path (cmd/nfsmond) are the same machinery.
func Run(cfg Config, src OpSource, analyzers ...Analyzer) (Stats, error) {
	lv := NewLive(cfg, analyzers...)
	for {
		op, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			stats := lv.Stats()
			lv.Abort()
			return stats, err
		}
		lv.Feed(op)
	}
	return lv.Finish(), nil
}

// RunSlice runs analyzers over an in-memory op slice; it cannot fail.
func RunSlice(cfg Config, ops []*core.Op, analyzers ...Analyzer) Stats {
	stats, _ := Run(cfg, SliceOps(ops), analyzers...)
	return stats
}
