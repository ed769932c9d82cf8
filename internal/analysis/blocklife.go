package analysis

import (
	"repro/internal/core"
	"repro/internal/stats"
)

// Block lifetime analysis using Roselli's create-based method as the
// paper applies it (§5.2): Phase 1 records births and deaths; Phase 2
// (the "end margin") records only deaths; deaths with lifespans longer
// than the margin are discarded to remove sampling bias; blocks that
// outlive Phase 2 are the "end surplus".

// Birth causes.
const (
	BirthWrite = iota
	BirthExtension
	numBirthCauses
)

// Death causes.
const (
	DeathOverwrite = iota
	DeathTruncate
	DeathDelete
	numDeathCauses
)

// BlockLifeResult is the Table 4 + Figure 3 output.
type BlockLifeResult struct {
	// Births and Deaths count blocks; Table 4 reports the causes as
	// percentages.
	Births     int64
	BirthCause [numBirthCauses]int64
	Deaths     int64
	DeathCause [numDeathCauses]int64
	// EndSurplus counts Phase 1 births still alive at the end of
	// Phase 2; EndSurplusPct is relative to births.
	EndSurplus int64
	// Lifetimes is the distribution of block lifespans (Figure 3).
	Lifetimes *stats.CDF
}

// BirthPct reports the percentage of births with the given cause.
func (r *BlockLifeResult) BirthPct(cause int) float64 {
	if r.Births == 0 {
		return 0
	}
	return 100 * float64(r.BirthCause[cause]) / float64(r.Births)
}

// DeathPct reports the percentage of deaths with the given cause.
func (r *BlockLifeResult) DeathPct(cause int) float64 {
	if r.Deaths == 0 {
		return 0
	}
	return 100 * float64(r.DeathCause[cause]) / float64(r.Deaths)
}

// EndSurplusPct reports the end surplus as a percentage of births.
func (r *BlockLifeResult) EndSurplusPct() float64 {
	if r.Births == 0 {
		return 0
	}
	return 100 * float64(r.EndSurplus) / float64(r.Births)
}

// blockLifeState tracks one analysis window.
type blockLifeState struct {
	res BlockLifeResult
	// births maps fh → block → birth time (Phase 1 births only).
	births map[core.FH]map[int64]float64
	// sizes tracks the last known size (in bytes) per fh, from any
	// attribute-bearing reply.
	sizes map[core.FH]uint64
	// names maps (dirFH, name) → fileFH so REMOVE calls can be tied to
	// the removed file (§4.1.1 hierarchy information).
	names map[nameBinding]core.FH

	phase1End float64
	margin    float64
}

// nameBinding is one (directory, name) edge, the key the reducers
// resolve removes and renames through.
type nameBinding struct {
	dir  core.FH
	name string
}

// BlockLifeStream is the incremental form of BlockLife: feed it
// time-ordered operations with Add and read the analysis with Result.
// The sharded pipeline runs one stream per shard (the per-file state
// partitions cleanly by handle) and merges the streams with Merge.
type BlockLifeStream struct {
	st    blockLifeState
	start float64
	end   float64
	done  bool
}

// NewBlockLifeStream prepares a create-based analysis: Phase 1 covers
// [start, start+phase), the end margin covers [start+phase,
// start+phase+margin). The paper uses 24-hour phases with 24-hour
// margins, 9am to 9am.
func NewBlockLifeStream(start, phase, margin float64) *BlockLifeStream {
	s := &BlockLifeStream{
		st: blockLifeState{
			births:    make(map[core.FH]map[int64]float64),
			sizes:     make(map[core.FH]uint64),
			names:     make(map[nameBinding]core.FH),
			phase1End: start + phase,
			margin:    margin,
		},
		start: start,
		end:   start + phase + margin,
	}
	s.st.res.Lifetimes = &stats.CDF{}
	return s
}

// Add folds one operation into the analysis. Ops must arrive in
// time order; ops past the analysis window are ignored.
func (s *BlockLifeStream) Add(op *core.Op) {
	if s.done || op.T >= s.end {
		return
	}
	// Name tracking must run over the whole stream (including
	// pre-window ops) so deletions resolve, and size tracking too.
	s.st.trackNames(op)
	if op.T < s.start {
		s.st.trackSizes(op)
		return
	}
	s.st.handle(op)
	s.st.trackSizes(op)
}

// Result finalizes the stream (counting the end surplus) and returns
// the analysis. After Result, further Consume calls are no-ops.
func (s *BlockLifeStream) Result() *BlockLifeResult {
	if !s.done {
		// End surplus: Phase-1 births still alive.
		for _, blocks := range s.st.births {
			s.st.res.EndSurplus += int64(len(blocks))
		}
		s.done = true
	}
	return &s.st.res
}

// Merge folds other's mid-stream state into s, as if other's ops had
// followed s's: counters and lifetime samples sum, and per-file births,
// sizes and name bindings take other's entries. Every counter is an
// integer and the lifetime CDF merges by sample union, so merging the
// streams of a by-handle partition equals one stream over every op.
// Birth tables are taken over, not copied. Both streams must share one
// window.
func (s *BlockLifeStream) Merge(other *BlockLifeStream) {
	s.st.res.add(&other.st.res)
	mergeFiles(&other.st, func(core.FH) *blockLifeState { return &s.st })
}

// PruneNames drops the name bindings keep rejects. The pipeline prunes
// a merged stream on encode so only bindings the global op order still
// agrees with are serialized.
func (s *BlockLifeStream) PruneNames(keep func(dir core.FH, name string, child core.FH) bool) {
	for nb, fh := range s.st.names {
		if !keep(nb.dir, nb.name, fh) {
			delete(s.st.names, nb)
		}
	}
}

func (r *BlockLifeResult) add(o *BlockLifeResult) {
	r.Births += o.Births
	r.Deaths += o.Deaths
	r.EndSurplus += o.EndSurplus
	for i := range o.BirthCause {
		r.BirthCause[i] += o.BirthCause[i]
	}
	for i := range o.DeathCause {
		r.DeathCause[i] += o.DeathCause[i]
	}
	r.Lifetimes.Merge(o.Lifetimes)
}

// mergeFiles folds o's per-file state into the states dst names: birth
// tables (taken over when the destination has none for the file),
// sizes, and name bindings, which follow the bound child.
func mergeFiles(o *blockLifeState, dst func(core.FH) *blockLifeState) {
	for fh, blocks := range o.births {
		d := dst(fh)
		if m, ok := d.births[fh]; ok {
			for b, t := range blocks {
				m[b] = t
			}
		} else {
			d.births[fh] = blocks
		}
	}
	for fh, size := range o.sizes {
		dst(fh).sizes[fh] = size
	}
	for nb, fh := range o.names {
		dst(fh).names[nb] = fh
	}
}

// BlockLife runs the create-based analysis over a materialized op
// slice. See NewBlockLifeStream for the windowing semantics.
func BlockLife(ops []*core.Op, start, phase, margin float64) *BlockLifeResult {
	s := NewBlockLifeStream(start, phase, margin)
	for _, op := range ops {
		if op.T >= s.end {
			break
		}
		s.Add(op)
	}
	return s.Result()
}

// trackNames maintains the (dir, name) → file mapping from lookups and
// creates, the same on-the-fly reconstruction the paper uses.
func (st *blockLifeState) trackNames(op *core.Op) {
	switch op.Proc {
	case core.ProcLookup, core.ProcCreate, core.ProcMkdir:
		if op.Name != "" && op.NewFH != 0 {
			st.names[nameBinding{op.FH, op.Name}] = op.NewFH
		}
	case core.ProcRename:
		key := nameBinding{op.FH, op.Name}
		if fh, ok := st.names[key]; ok {
			delete(st.names, key)
			st.names[nameBinding{op.FH2, op.Name2}] = fh
		}
	}
}

// trackSizes keeps the last observed size per file.
func (st *blockLifeState) trackSizes(op *core.Op) {
	if !op.Replied {
		return
	}
	switch op.Proc {
	case core.ProcRemove:
		// handled in handle()
	case core.ProcLookup, core.ProcCreate, core.ProcMkdir:
		// The attributes belong to the looked-up/created object.
		if op.NewFH != 0 {
			st.sizes[op.NewFH] = op.Size
		}
	default:
		if op.Size != 0 || op.Proc == core.ProcSetattr || op.Proc == core.ProcWrite {
			st.sizes[op.FH] = op.Size
		}
	}
}

func blocksOf(bytes uint64) int64 { return int64((bytes + BlockSize - 1) / BlockSize) }

func (st *blockLifeState) handle(op *core.Op) {
	if !op.OK() {
		return
	}
	switch op.Proc {
	case core.ProcWrite:
		st.handleWrite(op)
	case core.ProcSetattr:
		if op.HasSet {
			st.handleTruncate(op)
		}
	case core.ProcCreate:
		// CREATE with size 0 truncates an existing file.
		if op.HasSet && op.SetSize == 0 && op.NewFH != 0 {
			if old, ok := st.sizes[op.NewFH]; ok && old > 0 {
				st.killRange(op.NewFH, 0, blocksOf(old), op.T, DeathTruncate)
			}
		}
	case core.ProcRemove:
		fh, ok := st.names[nameBinding{op.FH, op.Name}]
		if !ok {
			return
		}
		size := st.sizes[fh]
		st.killRange(fh, 0, blocksOf(size), op.T, DeathDelete)
		delete(st.sizes, fh)
		delete(st.names, nameBinding{op.FH, op.Name})
	}
}

// handleWrite processes block births and overwrite deaths for one
// write. The pre-operation size comes from wcc data when present, else
// from tracked state.
func (st *blockLifeState) handleWrite(op *core.Op) {
	preSize, havePre := op.PreSize, op.HasPre
	if !havePre {
		preSize = st.sizes[op.FH]
	}
	preBlocks := blocksOf(preSize)
	start := int64(op.Offset / BlockSize)
	end := int64((op.Offset + op.Bytes() + BlockSize - 1) / BlockSize)

	// Extension births: the hole between the old EOF and the write
	// start (lseek-past-EOF semantics, §5.2.2).
	if start > preBlocks {
		for b := preBlocks; b < start; b++ {
			st.birth(op.FH, b, op.T, BirthExtension)
		}
	}
	for b := start; b < end; b++ {
		if b < preBlocks {
			// Overwrite: the old block dies, a new one is born.
			st.death(op.FH, b, op.T, DeathOverwrite)
		}
		st.birth(op.FH, b, op.T, BirthWrite)
	}
}

func (st *blockLifeState) handleTruncate(op *core.Op) {
	var oldSize uint64
	if op.HasPre {
		oldSize = op.PreSize
	} else {
		oldSize = st.sizes[op.FH]
	}
	newBlocks := blocksOf(op.SetSize)
	oldBlocks := blocksOf(oldSize)
	if newBlocks < oldBlocks {
		st.killRange(op.FH, newBlocks, oldBlocks, op.T, DeathTruncate)
	}
}

func (st *blockLifeState) killRange(fh core.FH, from, to int64, t float64, cause int) {
	for b := from; b < to; b++ {
		st.death(fh, b, t, cause)
	}
}

func (st *blockLifeState) birth(fh core.FH, b int64, t float64, cause int) {
	if t >= st.phase1End {
		return // Phase 2 records deaths only
	}
	m := st.births[fh]
	if m == nil {
		m = make(map[int64]float64)
		st.births[fh] = m
	}
	if _, alive := m[b]; alive {
		// Rebirth without an observed death (shouldn't happen; guard).
		return
	}
	m[b] = t
	st.res.Births++
	st.res.BirthCause[cause]++
}

func (st *blockLifeState) death(fh core.FH, b int64, t float64, cause int) {
	m := st.births[fh]
	if m == nil {
		return
	}
	born, ok := m[b]
	if !ok {
		return // born before Phase 1; not tracked
	}
	delete(m, b)
	if len(m) == 0 {
		// No empty tables: a serialized state then decodes to the same
		// map it was encoded from.
		delete(st.births, fh)
	}
	life := t - born
	if life > st.margin {
		// Discard to remove sampling bias (§5.2).
		return
	}
	st.res.Deaths++
	st.res.DeathCause[cause]++
	st.res.Lifetimes.Add(life)
}
