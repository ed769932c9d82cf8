package analysis

import (
	"cmp"
	"slices"
	"strings"

	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/stats"
)

// The reducer contract. Every reduction the pipeline shards (Summary,
// HourlySeries, AccessMap, BlockLifeStream, PeakHourInstances,
// MailboxShare, Hierarchy, NamesStream) has the same six methods:
//
//   - Add folds one operation in.
//   - Clone returns an independent deep copy (clone.go).
//   - Merge folds another reducer of the same configuration in, as if
//     its operations had followed the receiver's. It may take over the
//     other reducer's per-file storage instead of copying it, so the
//     other must not be used afterwards.
//   - DistributeState is Merge split by file: it folds the receiver
//     into shard-local reducers, each file's state into the part
//     shardOf names and stream-wide sums into parts[0]. It takes over
//     the receiver's storage the same way.
//   - EncodeState and DecodeState below: DecodeState folds a
//     serialized partial into the receiver exactly as Merge folds a
//     live one.
//
// Encoders emit map entries sorted by interned handle ID, and name
// bindings by (directory, name), so two encodes of one state are byte
// for byte the same within a process. (Handle IDs follow intern order,
// so the bytes may differ across processes; decoders do not depend on
// entry order.) File handles and procedures go through the state
// package's dictionaries, so interned IDs survive process boundaries.
//
// Decoding validates semantic invariants (config match, index ranges)
// through Decoder.Failf; a hostile payload leaves the decoder in its
// sticky error state and the caller discards the whole partial, so
// garbage never merges silently.

// maxBucketIndex bounds time-bucket indexes accepted from a state file:
// open accumulators grow to the largest index folded, so an unchecked
// hostile index could demand gigabytes. 2^20 hour-buckets is over a
// century of trace.
const maxBucketIndex = 1 << 20

// sortedKeys returns m's keys in ascending order.
func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// sortedBindings returns m's keys ordered by (directory, name).
func sortedBindings[V any](m map[nameBinding]V) []nameBinding {
	keys := make([]nameBinding, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b nameBinding) int {
		if c := cmp.Compare(a.dir, b.dir); c != 0 {
			return c
		}
		return strings.Compare(a.name, b.name)
	})
	return keys
}

func encodeCDF(e *state.Encoder, c *stats.CDF) {
	samples := c.Samples()
	e.Uvarint(uint64(len(samples)))
	for _, v := range samples {
		e.F64(v)
	}
}

func decodeCDF(d *state.Decoder, c *stats.CDF) {
	n := d.Count("cdf sample count")
	for i := 0; i < n && d.Err() == nil; i++ {
		c.Add(d.F64())
	}
}

func encodeBuckets(e *state.Encoder, b *stats.TimeBuckets) {
	e.F64(b.Width())
	values := b.Values()
	nonzero := 0
	for _, v := range values {
		if v != 0 {
			nonzero++
		}
	}
	e.Uvarint(uint64(nonzero))
	for i, v := range values {
		if v != 0 {
			e.Uvarint(uint64(i))
			e.F64(v)
		}
	}
}

func decodeBuckets(d *state.Decoder, b *stats.TimeBuckets) {
	width := d.F64()
	if d.Err() == nil && width != b.Width() {
		d.Failf("time-bucket width %v does not match accumulator width %v", width, b.Width())
		return
	}
	n := d.Count("time-bucket count")
	for i := 0; i < n && d.Err() == nil; i++ {
		idx := d.Uvarint()
		v := d.F64()
		if idx > maxBucketIndex {
			d.Failf("time-bucket index %d exceeds limit %d", idx, maxBucketIndex)
			return
		}
		if d.Err() == nil {
			b.FoldBucket(int(idx), v)
		}
	}
}

// EncodeState serializes the summary counters. Days is derived from the
// trace span at render time, so it is not part of the state.
func (s *Summary) EncodeState(e *state.Encoder) {
	e.Varint(s.TotalOps)
	e.Varint(s.ReadOps)
	e.Varint(s.WriteOps)
	e.Varint(s.MetadataOps)
	e.Uvarint(s.BytesRead)
	e.Uvarint(s.BytesWritten)
	nonzero := 0
	for _, n := range s.ProcCounts {
		if n != 0 {
			nonzero++
		}
	}
	e.Uvarint(uint64(nonzero))
	for id, n := range s.ProcCounts {
		if n != 0 {
			e.Proc(core.ProcID(id))
			e.Varint(n)
		}
	}
}

// DecodeState folds a serialized summary into s, like Merge.
func (s *Summary) DecodeState(d *state.Decoder) {
	s.TotalOps += d.Varint()
	s.ReadOps += d.Varint()
	s.WriteOps += d.Varint()
	s.MetadataOps += d.Varint()
	s.BytesRead += d.Uvarint()
	s.BytesWritten += d.Uvarint()
	n := d.Count("procedure count")
	for i := 0; i < n && d.Err() == nil; i++ {
		p := d.Proc()
		c := d.Varint()
		if d.Err() == nil {
			s.ProcCounts[p] += c
		}
	}
}

// DistributeState folds s into parts[0]: a summary is pure sums.
func (s *Summary) DistributeState(parts []*Summary, _ func(core.FH) int) { parts[0].Merge(s) }

// EncodeState serializes the five hourly series as sparse buckets.
// Bucket indexes are anchored at t=0, so the open and fixed forms
// serialize identically.
func (h *HourlySeries) EncodeState(e *state.Encoder) {
	encodeBuckets(e, h.Ops)
	encodeBuckets(e, h.ReadOps)
	encodeBuckets(e, h.WriteOps)
	encodeBuckets(e, h.BytesRead)
	encodeBuckets(e, h.BytesWrite)
}

// DecodeState folds serialized hourly series into h. The receiver may
// be open (growing) or fixed (clamping); folding by bucket index
// reproduces exactly what adding the underlying ops would have.
func (h *HourlySeries) DecodeState(d *state.Decoder) {
	decodeBuckets(d, h.Ops)
	decodeBuckets(d, h.ReadOps)
	decodeBuckets(d, h.WriteOps)
	decodeBuckets(d, h.BytesRead)
	decodeBuckets(d, h.BytesWrite)
}

// DistributeState folds h into parts[0]: buckets are pure sums.
func (h *HourlySeries) DistributeState(parts []*HourlySeries, _ func(core.FH) int) {
	parts[0].Merge(h)
}

// EncodeState serializes the per-file access lists.
func (m AccessMap) EncodeState(e *state.Encoder) {
	e.Uvarint(uint64(len(m)))
	for _, fh := range sortedKeys(m) {
		accs := m[fh]
		e.FH(fh)
		e.Uvarint(uint64(len(accs)))
		for _, a := range accs {
			e.F64(a.T)
			e.Uvarint(a.Offset)
			e.Uvarint(uint64(a.Count))
			e.Bool(a.Write)
			e.Bool(a.EOF)
			e.Uvarint(a.Size)
		}
	}
}

// DecodeState appends serialized access lists to m. Partials must be
// decoded in trace-time order so each file's accesses concatenate in
// order — the same contract AccessMap.Merge has.
func (m AccessMap) DecodeState(d *state.Decoder) {
	nf := d.Count("file count")
	for i := 0; i < nf && d.Err() == nil; i++ {
		fh := d.FH()
		na := d.Count("access count")
		for j := 0; j < na && d.Err() == nil; j++ {
			a := Access{
				T:      d.F64(),
				Offset: d.Uvarint(),
				Count:  uint32(d.Uvarint()),
				Write:  d.Bool(),
				EOF:    d.Bool(),
				Size:   d.Uvarint(),
			}
			if d.Err() == nil {
				m[fh] = append(m[fh], a)
			}
		}
	}
}

// EncodeState serializes the full mid-stream block-lifetime state:
// result counters, live Phase-1 births, tracked sizes and name
// bindings, and the window configuration (validated on decode — a
// partial is only meaningful under the window it was built with).
func (s *BlockLifeStream) EncodeState(e *state.Encoder) {
	e.F64(s.start)
	e.F64(s.st.phase1End)
	e.F64(s.st.margin)
	e.Bool(s.done)

	e.Varint(s.st.res.Births)
	for _, c := range s.st.res.BirthCause {
		e.Varint(c)
	}
	e.Varint(s.st.res.Deaths)
	for _, c := range s.st.res.DeathCause {
		e.Varint(c)
	}
	e.Varint(s.st.res.EndSurplus)
	encodeCDF(e, s.st.res.Lifetimes)

	e.Uvarint(uint64(len(s.st.births)))
	for _, fh := range sortedKeys(s.st.births) {
		blocks := s.st.births[fh]
		e.FH(fh)
		e.Uvarint(uint64(len(blocks)))
		for _, b := range sortedKeys(blocks) {
			e.Varint(b)
			e.F64(blocks[b])
		}
	}
	e.Uvarint(uint64(len(s.st.sizes)))
	for _, fh := range sortedKeys(s.st.sizes) {
		e.FH(fh)
		e.Uvarint(s.st.sizes[fh])
	}
	encodeBindings(e, s.st.names)
}

// encodeBindings writes a (dir, name) → handle map in binding order.
func encodeBindings(e *state.Encoder, m map[nameBinding]core.FH) {
	e.Uvarint(uint64(len(m)))
	for _, nb := range sortedBindings(m) {
		e.FH(nb.dir)
		e.String(nb.name)
		e.FH(m[nb])
	}
}

// decodeBindings folds an encodeBindings map into m.
func decodeBindings(d *state.Decoder, m map[nameBinding]core.FH) {
	n := d.Count("name binding count")
	for i := 0; i < n && d.Err() == nil; i++ {
		dir := d.FH()
		name := d.String("name")
		fh := d.FH()
		if d.Err() == nil {
			m[nameBinding{dir, name}] = fh
		}
	}
}

// DecodeState folds a serialized block-lifetime partial into s. The
// encoded window must match the receiver's: lifetimes and phases only
// compose under one configuration.
func (s *BlockLifeStream) DecodeState(d *state.Decoder) {
	start := d.F64()
	phase1End := d.F64()
	margin := d.F64()
	done := d.Bool()
	if d.Err() != nil {
		return
	}
	if start != s.start || phase1End != s.st.phase1End || margin != s.st.margin {
		d.Failf("block-life window (start=%v phase1End=%v margin=%v) does not match receiver (start=%v phase1End=%v margin=%v)",
			start, phase1End, margin, s.start, s.st.phase1End, s.st.margin)
		return
	}
	if done {
		d.Failf("block-life state was finalized before export; partials must be exported mid-stream")
		return
	}

	s.st.res.Births += d.Varint()
	for i := range s.st.res.BirthCause {
		s.st.res.BirthCause[i] += d.Varint()
	}
	s.st.res.Deaths += d.Varint()
	for i := range s.st.res.DeathCause {
		s.st.res.DeathCause[i] += d.Varint()
	}
	s.st.res.EndSurplus += d.Varint()
	decodeCDF(d, s.st.res.Lifetimes)

	nb := d.Count("birth file count")
	for i := 0; i < nb && d.Err() == nil; i++ {
		fh := d.FH()
		nblk := d.Count("birth block count")
		for j := 0; j < nblk && d.Err() == nil; j++ {
			b := d.Varint()
			t := d.F64()
			if d.Err() != nil {
				break
			}
			m := s.st.births[fh]
			if m == nil {
				m = make(map[int64]float64)
				s.st.births[fh] = m
			}
			m[b] = t
		}
	}
	ns := d.Count("size count")
	for i := 0; i < ns && d.Err() == nil; i++ {
		fh := d.FH()
		size := d.Uvarint()
		if d.Err() == nil {
			s.st.sizes[fh] = size
		}
	}
	decodeBindings(d, s.st.names)
}

// DistributeState folds m's per-file lists into the shard-local maps
// shardOf names, taking the lists over: the inverse of the union an
// encoder writes, so a resumed multi-shard run places every file's
// history on the shard its future ops route to.
func (m AccessMap) DistributeState(parts []AccessMap, shardOf func(core.FH) int) {
	for fh, accs := range m {
		parts[shardOf(fh)].adopt(fh, accs)
	}
}

// DistributeState folds s into shard-local streams: births and sizes
// go to the shard owning their file, name bindings to the shard owning
// the bound child (the router delivers removes there), and the
// stream-wide counters to parts[0].
func (s *BlockLifeStream) DistributeState(parts []*BlockLifeStream, shardOf func(core.FH) int) {
	parts[0].st.res.add(&s.st.res)
	mergeFiles(&s.st, func(fh core.FH) *blockLifeState { return &parts[shardOf(fh)].st })
}

// EncodeState serializes the peak-hour window, category map, and
// instance set.
func (p *PeakHourInstances) EncodeState(e *state.Encoder) {
	e.F64(p.From)
	e.F64(p.To)
	e.Uvarint(uint64(len(p.cat)))
	for _, fh := range sortedKeys(p.cat) {
		e.FH(fh)
		e.Uvarint(uint64(p.cat[fh]))
	}
	encodeSet(e, p.instances)
}

// encodeSet writes a handle set in handle order.
func encodeSet(e *state.Encoder, set map[core.FH]bool) {
	e.Uvarint(uint64(len(set)))
	for _, fh := range sortedKeys(set) {
		e.FH(fh)
	}
}

// decodeSet folds an encodeSet set into set.
func decodeSet(d *state.Decoder, set map[core.FH]bool, what string) {
	n := d.Count(what)
	for i := 0; i < n && d.Err() == nil; i++ {
		if fh := d.FH(); d.Err() == nil {
			set[fh] = true
		}
	}
}

// DecodeState folds a serialized peak-hour partial into p. Windows must
// match; category entries overwrite (partials are decoded in trace-time
// order, so later name observations win, as they would in one pass).
func (p *PeakHourInstances) DecodeState(d *state.Decoder) {
	from := d.F64()
	to := d.F64()
	if d.Err() != nil {
		return
	}
	if from != p.From || to != p.To {
		d.Failf("peak-hour window [%v,%v) does not match receiver [%v,%v)", from, to, p.From, p.To)
		return
	}
	nc := d.Count("category count")
	for i := 0; i < nc && d.Err() == nil; i++ {
		fh := d.FH()
		c := d.Uvarint()
		if c >= uint64(numCategories) {
			d.Failf("name category %d out of range (%d categories)", c, numCategories)
			return
		}
		if d.Err() == nil {
			p.cat[fh] = NameCategory(c)
		}
	}
	decodeSet(d, p.instances, "instance count")
}

// DistributeState spreads p's decoded maps across shard-local
// accumulators by file handle.
func (p *PeakHourInstances) DistributeState(parts []*PeakHourInstances, shardOf func(core.FH) int) {
	for fh, c := range p.cat {
		parts[shardOf(fh)].cat[fh] = c
	}
	for fh := range p.instances {
		parts[shardOf(fh)].instances[fh] = true
	}
}

// EncodeState serializes the mailbox/large-file handle sets and
// per-file byte counts.
func (m *MailboxShare) EncodeState(e *state.Encoder) {
	encodeSet(e, m.mailboxFH)
	encodeSet(e, m.big)
	e.Uvarint(uint64(len(m.bytes)))
	for _, fh := range sortedKeys(m.bytes) {
		e.FH(fh)
		e.Uvarint(m.bytes[fh])
	}
}

// DecodeState folds a serialized mailbox-share partial into m: handle
// sets union, byte counts sum.
func (m *MailboxShare) DecodeState(d *state.Decoder) {
	decodeSet(d, m.mailboxFH, "mailbox handle count")
	decodeSet(d, m.big, "big handle count")
	ny := d.Count("byte entry count")
	for i := 0; i < ny && d.Err() == nil; i++ {
		fh := d.FH()
		n := d.Uvarint()
		if d.Err() == nil {
			m.bytes[fh] += n
		}
	}
}

// DistributeState spreads m's decoded maps across shard-local
// accumulators by file handle.
func (m *MailboxShare) DistributeState(parts []*MailboxShare, shardOf func(core.FH) int) {
	for fh := range m.mailboxFH {
		parts[shardOf(fh)].mailboxFH[fh] = true
	}
	for fh := range m.big {
		parts[shardOf(fh)].big[fh] = true
	}
	for fh, n := range m.bytes {
		parts[shardOf(fh)].bytes[fh] += n
	}
}

// EncodeState serializes the reconstructed namespace: the warm-up
// clock and post-warm-up counters, parent edges, the reverse index
// exactly as it stands (stale entries and all: resolve's repair path
// depends on the index state, so a faithful copy keeps the resumed run
// deterministic), the known-handle set, and the all-ops counters.
func (h *Hierarchy) EncodeState(e *state.Encoder) {
	e.F64(h.warmup)
	e.Bool(h.started)
	e.F64(h.start)
	e.Varint(h.warmResolvable)
	e.Varint(h.warmTotal)
	e.Uvarint(uint64(len(h.parent)))
	for _, fh := range sortedKeys(h.parent) {
		e.FH(fh)
		e.FH(h.parent[fh].dir)
		e.String(h.parent[fh].name)
	}
	encodeBindings(e, h.byEdge)
	encodeSet(e, h.known)
	e.Varint(h.resolvable)
	e.Varint(h.total)
}

// DecodeState folds a serialized namespace into h. The warm-up must
// match; the clock keeps the receiver's start if it has one (it started
// with the first op of the whole stream, not of this piece).
func (h *Hierarchy) DecodeState(d *state.Decoder) {
	warmup := d.F64()
	if d.Err() == nil && warmup != h.warmup {
		d.Failf("hierarchy warmup %vs does not match receiver's %vs", warmup, h.warmup)
		return
	}
	started, start := d.Bool(), d.F64()
	if !h.started {
		h.started, h.start = started, start
	}
	h.warmResolvable += d.Varint()
	h.warmTotal += d.Varint()
	np := d.Count("parent edge count")
	for i := 0; i < np && d.Err() == nil; i++ {
		fh := d.FH()
		dir := d.FH()
		name := d.String("edge name")
		if d.Err() == nil {
			h.parent[fh] = nameBinding{dir, name}
		}
	}
	decodeBindings(d, h.byEdge)
	decodeSet(d, h.known, "known handle count")
	h.resolvable += d.Varint()
	h.total += d.Varint()
}

// DistributeState folds h into parts[0]: the namespace is global, so
// the pipeline runs it on one shard.
func (h *Hierarchy) DistributeState(parts []*Hierarchy, _ func(core.FH) int) { parts[0].Merge(h) }

// EncodeState serializes the name-analysis stream: open instances, name
// bindings, and the folded per-category aggregate.
func (n *NamesStream) EncodeState(e *state.Encoder) {
	e.Uvarint(uint64(numCategories))

	e.Uvarint(uint64(len(n.lives)))
	for _, fh := range sortedKeys(n.lives) {
		fl := n.lives[fh]
		e.FH(fh)
		e.String(fl.name)
		e.Uvarint(uint64(fl.cat))
		e.F64(fl.born)
		e.F64(fl.died)
		e.Bool(fl.deleted)
		e.Uvarint(fl.maxSize)
		e.Varint(fl.reads)
		e.Varint(fl.writes)
		e.Bool(fl.readSeq)
	}
	encodeBindings(e, n.names)

	for c := 0; c < int(numCategories); c++ {
		e.Varint(n.agg.created[c])
		e.Varint(n.agg.deleted[c])
		e.Varint(n.agg.readOps[c])
		e.Varint(n.agg.writeOps[c])
		encodeCDF(e, n.agg.lifetimes[c])
		encodeCDF(e, n.agg.sizes[c])
		for _, v := range n.agg.sizeHist[c] {
			e.Varint(v)
		}
		for _, v := range n.agg.lifeHist[c] {
			e.Varint(v)
		}
	}
	e.Varint(n.agg.lockDeleted)
	e.Varint(n.agg.totalDeleted)
}

// DecodeState folds a serialized names stream into n.
func (n *NamesStream) DecodeState(d *state.Decoder) {
	nc := d.Uvarint()
	if d.Err() != nil {
		return
	}
	if nc != uint64(numCategories) {
		d.Failf("name-category count %d does not match this build's %d", nc, numCategories)
		return
	}

	nl := d.Count("open instance count")
	for i := 0; i < nl && d.Err() == nil; i++ {
		fh := d.FH()
		fl := &fileLife{
			name: d.String("instance name"),
		}
		cat := d.Uvarint()
		fl.born = d.F64()
		fl.died = d.F64()
		fl.deleted = d.Bool()
		fl.maxSize = d.Uvarint()
		fl.reads = d.Varint()
		fl.writes = d.Varint()
		fl.readSeq = d.Bool()
		if cat >= uint64(numCategories) {
			d.Failf("name category %d out of range (%d categories)", cat, numCategories)
			return
		}
		fl.cat = NameCategory(cat)
		if d.Err() == nil {
			n.lives[fh] = fl
		}
	}
	decodeBindings(d, n.names)

	for c := 0; c < int(numCategories) && d.Err() == nil; c++ {
		n.agg.created[c] += d.Varint()
		n.agg.deleted[c] += d.Varint()
		n.agg.readOps[c] += d.Varint()
		n.agg.writeOps[c] += d.Varint()
		decodeCDF(d, n.agg.lifetimes[c])
		decodeCDF(d, n.agg.sizes[c])
		for j := range n.agg.sizeHist[c] {
			n.agg.sizeHist[c][j] += d.Varint()
		}
		for j := range n.agg.lifeHist[c] {
			n.agg.lifeHist[c][j] += d.Varint()
		}
	}
	n.agg.lockDeleted += d.Varint()
	n.agg.totalDeleted += d.Varint()
}

// DistributeState folds n into parts[0]: the names stream is global, so
// the pipeline runs it on one shard.
func (n *NamesStream) DistributeState(parts []*NamesStream, _ func(core.FH) int) { parts[0].Merge(n) }
