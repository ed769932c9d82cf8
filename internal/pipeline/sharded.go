package pipeline

import (
	"repro/internal/core"
	"repro/internal/state"
)

// Every analyzer in this package is one generic body, sharded[R], around
// a reducer from internal/analysis. The body opens one reducer per
// shard, forks by cloning each shard, writes the union of the shards
// into the analyzer's state-file section, and spreads a decoded partial
// back across the shards. An analyzer adds only its configuration, its
// results, and a finish step (analyzers.go).
//
// Two reducer families fall out of the paper's analyses:
//
//   - Parallel-exact reducers (summary, hourly, runs, reorder,
//     peak-hour, mailbox): their state is a sum, a set union, or a
//     per-file partition, so independently computed partials merge in
//     trace-time order into exactly the single-pass result.
//
//   - Sequential reducers (block lifetimes, hierarchy, names): their
//     state depends on stream order (phase windows, namespace warm-up),
//     so partials only compose as a resume chain — each piece seeded
//     from its predecessor's state. MergePartials enforces this.

// reducer is the contract every internal/analysis reduction meets (see
// internal/analysis/state.go). R is the reducer's own type.
type reducer[R any] interface {
	Accumulator
	Clone() R
	Merge(other R)
	DistributeState(parts []R, shardOf func(core.FH) int)
	EncodeState(e *state.Encoder)
	DecodeState(d *state.Decoder)
}

// analyzerSpec is what an analyzer adds to its embedded sharded body.
type analyzerSpec[R reducer[R]] interface {
	statefulAnalyzer
	// newReducer returns an empty reducer under the configuration.
	newReducer() R
	// finish reads the results off the merged reducer.
	finish(all R)
	// body returns the embedded sharded body.
	body() *sharded[R]
}

// statefulAnalyzer is the partial-state side of an analyzer, which
// works before Open: MergePartials and RunPartitioned consult it on
// analyzers they have not opened yet.
type statefulAnalyzer interface {
	Analyzer
	// stateKey names the section payload format; the section is written
	// as "<index>:<key>" so one run can carry two analyzers of a kind.
	stateKey() string
	// newLike returns a fresh unopened analyzer with the same
	// configuration, for forks and for the intermediate pieces of a
	// partitioned run.
	newLike() Analyzer
	// encodeState writes the union of every shard's partial state; it
	// runs after Quiesce. rt resolves cross-shard name bindings.
	encodeState(e *state.Encoder, rt *router)
	// decodeState folds one serialized partial into the open shards; it
	// runs after Open, before any Feed.
	decodeState(d *state.Decoder)
}

// stateHeader is implemented by analyzers whose configuration lives
// outside their reducer: the header leads their section and must match
// the receiver's on decode.
type stateHeader interface {
	encodeHeader(e *state.Encoder)
	decodeHeader(d *state.Decoder)
}

// sharded is the generic analyzer body: one reducer per shard.
type sharded[R reducer[R]] struct {
	spec  analyzerSpec[R]
	parts []R
}

func (s *sharded[R]) body() *sharded[R] { return s }

// open binds the body to its analyzer and opens one empty reducer per
// shard.
func (s *sharded[R]) open(a analyzerSpec[R], shards int) []Accumulator {
	s.spec = a
	s.parts = make([]R, shards)
	for i := range s.parts {
		s.parts[i] = a.newReducer()
	}
	return s.accumulators()
}

func (s *sharded[R]) accumulators() []Accumulator {
	accs := make([]Accumulator, len(s.parts))
	for i, p := range s.parts {
		accs[i] = p
	}
	return accs
}

// merged folds every shard into shard 0 and returns it. It runs once
// the shards no longer receive ops (Close, and encodeState after
// Quiesce), so Merge may take the other shards' per-file storage over
// instead of copying it into a separate union.
func (s *sharded[R]) merged() R {
	for _, p := range s.parts[1:] {
		s.parts[0].Merge(p)
	}
	s.parts = s.parts[:1]
	return s.parts[0]
}

// Close implements Analyzer: it merges the shards and runs the
// analyzer's finish step.
func (s *sharded[R]) Close() { s.spec.finish(s.merged()) }

// Fork implements ForkableAnalyzer: a same-configured analyzer holding
// a Clone of every shard, plus its accumulators.
func (s *sharded[R]) Fork() (Analyzer, []Accumulator) {
	f := s.spec.newLike().(analyzerSpec[R])
	fb := f.body()
	fb.spec = f
	fb.parts = make([]R, len(s.parts))
	for i, p := range s.parts {
		fb.parts[i] = p.Clone()
	}
	return f, fb.accumulators()
}

func (s *sharded[R]) encodeState(e *state.Encoder, rt *router) {
	if p, ok := s.spec.(interface{ prune(R, *router) }); ok {
		// Each shard is pruned before the merge, so a stale binding in
		// one shard cannot overwrite a current one from another.
		for _, part := range s.parts {
			p.prune(part, rt)
		}
	}
	if h, ok := s.spec.(stateHeader); ok {
		h.encodeHeader(e)
	}
	s.merged().EncodeState(e)
}

func (s *sharded[R]) decodeState(d *state.Decoder) {
	if h, ok := s.spec.(stateHeader); ok {
		h.decodeHeader(d)
	}
	if d.Err() != nil {
		return
	}
	tmp := s.spec.newReducer()
	tmp.DecodeState(d)
	if d.Err() == nil {
		tmp.DistributeState(s.parts, func(fh core.FH) int { return shardIndex(fh, len(s.parts)) })
	}
}

// IsSequential reports whether the analyzer's reduction is order
// dependent — if so, partial states from disjoint trace pieces cannot
// be merged independently and must be chained with resume. Sequential
// analyzers carry a sequential() marker.
func IsSequential(a Analyzer) bool {
	_, ok := a.(interface{ sequential() })
	return ok
}

// shardIndex maps a file handle to its owning shard — the same hash the
// router applies to data ops, so distributed state lands exactly where
// the resumed stream will route that file's future operations.
func shardIndex(fh core.FH, n int) int {
	if n <= 1 {
		return 0
	}
	return int(mix32(uint32(fh)) % uint64(n))
}
