// Package analysis implements every analysis in the paper: summary
// activity statistics (Table 2), run detection with reorder-window
// sorting and the entire/sequential/random taxonomy (§4.2, Table 3,
// Figures 1 and 2), the sequentiality metric (§6.4, Figure 5),
// create-based block lifetimes (§5.2, Table 4, Figure 3), hourly load
// and peak-hour variance (§6.2, Table 5, Figure 4), filename-based
// attribute prediction (§6.3), and on-the-fly hierarchy reconstruction
// (§4.1.1).
package analysis

import (
	"sort"

	"repro/internal/core"
)

// BlockSize is the 8 KB granularity the paper rounds offsets and counts
// to.
const BlockSize = 8192

// Access is one read or write to one file, in wire order.
type Access struct {
	T      float64
	Offset uint64
	Count  uint32
	Write  bool
	EOF    bool   // reply said the access reached end-of-file
	Size   uint64 // post-op file size, when known
}

// endBlock returns the block just past the access, with counts rounded
// up to whole blocks as §4.2 prescribes.
func (a Access) endBlock() int64 {
	return int64((a.Offset + uint64(a.Count) + BlockSize - 1) / BlockSize)
}

func (a Access) startBlock() int64 { return int64(a.Offset / BlockSize) }

// AccessMap groups data accesses by file handle, in trace order. It is
// the incremental form of FileAccesses: shards of the pipeline each
// accumulate one AccessMap for the files they own. Keys are interned
// handle IDs, so the per-op map update hashes one integer instead of a
// hex string.
type AccessMap map[core.FH][]Access

// Add appends op's data access to its file's list; metadata ops are
// ignored.
func (m AccessMap) Add(op *core.Op) {
	if !op.IsRead() && !op.IsWrite() {
		return
	}
	m[op.FH] = append(m[op.FH], Access{
		T:      op.T,
		Offset: op.Offset,
		Count:  uint32(op.Bytes()),
		Write:  op.IsWrite(),
		EOF:    op.EOF,
		Size:   op.Size,
	})
}

// Merge appends other's per-file lists to m's, as if other's accesses
// had followed m's. Lists m lacks are taken over, not copied.
func (m AccessMap) Merge(other AccessMap) {
	for fh, accs := range other {
		m.adopt(fh, accs)
	}
}

// adopt appends accs to fh's list, taking the slice over when m has
// none. Access lists are append-only, and a cloned list is capped at
// its length, so a taken-over list never writes into another map's view.
func (m AccessMap) adopt(fh core.FH, accs []Access) {
	if cur, ok := m[fh]; ok {
		m[fh] = append(cur, accs...)
	} else {
		m[fh] = accs
	}
}

// FileAccesses groups every data access by file handle, in trace order.
func FileAccesses(ops []*core.Op) map[core.FH][]Access {
	m := make(AccessMap)
	for _, op := range ops {
		m.Add(op)
	}
	return m
}

// SortWindow partially sorts accesses in ascending offset order within a
// temporal window of w seconds (§4.2's "reorder window"), undoing
// nfsiod reordering without masking true randomness. It returns the
// number of swaps performed.
func SortWindow(accs []Access, w float64) int {
	swaps := 0
	for i := 0; i < len(accs); i++ {
		// Find the in-window access with the smallest offset.
		best := i
		for j := i + 1; j < len(accs) && accs[j].T-accs[i].T <= w; j++ {
			if accs[j].Offset < accs[best].Offset {
				best = j
			}
		}
		if best != i && accs[best].Offset < accs[i].Offset {
			accs[i], accs[best] = accs[best], accs[i]
			swaps++
		}
	}
	return swaps
}

// ReorderSweepPoint is one point of Figure 1.
type ReorderSweepPoint struct {
	WindowMS float64
	// SwappedPct is the percentage of accesses that were swapped by
	// the sorting pass at this window size.
	SwappedPct float64
}

// SweepFiles counts, for each window size, how many accesses the
// sorting pass moves across the given files, plus the total access
// count. The raw counts (rather than percentages) let the pipeline sum
// partial sweeps across shards exactly.
func SweepFiles(files map[core.FH][]Access, windowsMS []float64) (swaps []int, total int) {
	for _, accs := range files {
		total += len(accs)
	}
	swaps = make([]int, len(windowsMS))
	for i, wms := range windowsMS {
		for _, accs := range files {
			cp := make([]Access, len(accs))
			copy(cp, accs)
			swaps[i] += SortWindow(cp, wms/1000)
		}
	}
	return swaps, total
}

// SweepPoints converts summed swap counts back into the Figure 1
// percentage points.
func SweepPoints(windowsMS []float64, swaps []int, total int) []ReorderSweepPoint {
	out := make([]ReorderSweepPoint, 0, len(windowsMS))
	for i, wms := range windowsMS {
		pct := 0.0
		if total > 0 {
			pct = 100 * float64(swaps[i]) / float64(total)
		}
		out = append(out, ReorderSweepPoint{WindowMS: wms, SwappedPct: pct})
	}
	return out
}

// ReorderSweep measures, for each window size, what fraction of
// accesses the sorting pass moves (Figure 1). The input ops are grouped
// per file; each sweep sorts a fresh copy.
func ReorderSweep(ops []*core.Op, windowsMS []float64) []ReorderSweepPoint {
	swaps, total := SweepFiles(FileAccesses(ops), windowsMS)
	return SweepPoints(windowsMS, swaps, total)
}

// Run kinds.
type RunKind int

// Run kind values.
const (
	RunRead RunKind = iota
	RunWrite
	RunReadWrite
)

// Run patterns.
type RunPattern int

// Run pattern values (the entire/sequential/random taxonomy).
const (
	PatternEntire RunPattern = iota
	PatternSequential
	PatternRandom
)

// Run is one detected run on one file.
type Run struct {
	FH       core.FH
	Accesses []Access
	Kind     RunKind
	Pattern  RunPattern
	// Bytes is the total bytes accessed in the run.
	Bytes uint64
	// FileSize is the largest file size observed during the run.
	FileSize uint64
	// Metric is the sequentiality metric with the configured jump
	// tolerance; MetricK1 is the strict (k=1) variant.
	Metric   float64
	MetricK1 float64
}

// RunConfig controls run detection.
type RunConfig struct {
	// ReorderWindow is the §4.2 sorting window in seconds (0 disables
	// sorting — the "raw" columns of Table 3).
	ReorderWindow float64
	// IdleGap breaks a run when consecutive accesses are farther apart
	// (30s in the paper).
	IdleGap float64
	// JumpBlocks is k: seeks of fewer than k 8 KB blocks do not break
	// sequentiality (10 in the paper; 1 = strict).
	JumpBlocks int64
}

// DefaultRunConfig is the paper's processed configuration for the given
// reorder window (5 ms for EECS, 10 ms for CAMPUS).
func DefaultRunConfig(windowMS float64) RunConfig {
	return RunConfig{ReorderWindow: windowMS / 1000, IdleGap: 30, JumpBlocks: 10}
}

// DetectRunsInFiles splits each file's accesses into runs and
// classifies them, iterating files in sorted-handle order so the run
// list is reproducible. The sort is by the rendered handle spelling,
// not the interned ID — ID numbering depends on decode interleaving,
// spellings don't. Every consumer of runs (Tabulate, SizeProfile,
// SequentialityProfile) aggregates per-run counts, so concatenating the
// run lists of disjoint file sets yields identical tables.
func DetectRunsInFiles(files map[core.FH][]Access, cfg RunConfig) []Run {
	fhs := make([]core.FH, 0, len(files))
	for fh := range files {
		fhs = append(fhs, fh)
	}
	sort.Slice(fhs, func(i, j int) bool { return fhs[i].String() < fhs[j].String() })

	var runs []Run
	for _, fh := range fhs {
		accs := files[fh]
		if cfg.ReorderWindow > 0 {
			cp := make([]Access, len(accs))
			copy(cp, accs)
			SortWindow(cp, cfg.ReorderWindow)
			accs = cp
		}
		runs = append(runs, splitRuns(fh, accs, cfg)...)
	}
	return runs
}

// DetectRuns splits every file's accesses into runs and classifies
// them.
func DetectRuns(ops []*core.Op, cfg RunConfig) []Run {
	return DetectRunsInFiles(FileAccesses(ops), cfg)
}

// splitRuns applies the §4.2 run-break rules: a new run begins after an
// access that referenced end-of-file, or after an idle gap.
func splitRuns(fh core.FH, accs []Access, cfg RunConfig) []Run {
	var runs []Run
	var cur []Access
	flush := func() {
		if len(cur) > 0 {
			runs = append(runs, classifyRun(fh, cur, cfg))
			cur = nil
		}
	}
	for i, a := range accs {
		if len(cur) > 0 {
			prev := cur[len(cur)-1]
			if prev.EOF || (cfg.IdleGap > 0 && a.T-prev.T > cfg.IdleGap) {
				flush()
			}
		}
		cur = append(cur, a)
		_ = i
	}
	flush()
	return runs
}

func classifyRun(fh core.FH, accs []Access, cfg RunConfig) Run {
	r := Run{FH: fh, Accesses: accs}
	reads, writes := 0, 0
	var maxSize uint64
	for _, a := range accs {
		if a.Write {
			writes++
		} else {
			reads++
		}
		r.Bytes += uint64(a.Count)
		if a.Size > maxSize {
			maxSize = a.Size
		}
	}
	r.FileSize = maxSize
	switch {
	case writes == 0:
		r.Kind = RunRead
	case reads == 0:
		r.Kind = RunWrite
	default:
		r.Kind = RunReadWrite
	}

	k := cfg.JumpBlocks
	if k < 1 {
		k = 1
	}
	sequential := true
	var seqK, seqStrict, total int64
	for i := 1; i < len(accs); i++ {
		total++
		prevEnd := accs[i-1].Offset + uint64(accs[i-1].Count)
		// Sequentiality (§4.2): each request begins where the previous
		// one left off, by byte offset, with forward slack of up to k
		// 8 KB blocks (offsets and counts round to blocks, so exact
		// byte-appends within a block are sequential too).
		if accs[i].Offset < prevEnd ||
			accs[i].Offset-prevEnd >= uint64(k)*BlockSize {
			sequential = false
		}
		// The k-consecutive metric works on blocks, counting small
		// jumps in either direction (§6.4).
		gap := accs[i].startBlock() - accs[i-1].endBlock()
		if gap < 0 {
			gap = -gap
		}
		if gap < k {
			seqK++
		}
		if gap == 0 {
			seqStrict++
		}
	}
	if total > 0 {
		r.Metric = float64(seqK) / float64(total)
		r.MetricK1 = float64(seqStrict) / float64(total)
	} else {
		r.Metric, r.MetricK1 = 1, 1
	}

	// Entire: sequential from offset 0 through end-of-file.
	first := accs[0]
	last := accs[len(accs)-1]
	coversWhole := first.Offset == 0 &&
		(last.EOF || (maxSize > 0 && last.Offset+uint64(last.Count) >= maxSize))
	if len(accs) == 1 {
		// Singleton runs: entire if they access the whole file,
		// sequential otherwise (§5.1, Table 3 note).
		if coversWhole {
			r.Pattern = PatternEntire
		} else {
			r.Pattern = PatternSequential
		}
		return r
	}
	switch {
	case sequential && coversWhole:
		r.Pattern = PatternEntire
	case sequential:
		r.Pattern = PatternSequential
	default:
		r.Pattern = PatternRandom
	}
	return r
}

// RunTable is the Table 3 presentation: run-count percentages by kind
// and pattern.
type RunTable struct {
	// ReadPct, WritePct, ReadWritePct are percentages of all runs.
	ReadPct, WritePct, ReadWritePct float64
	// Pattern percentages within each kind: [entire, sequential,
	// random].
	Read, Write, ReadWrite [3]float64
	TotalRuns              int
}

// Tabulate builds Table 3 from detected runs.
func Tabulate(runs []Run) RunTable {
	var t RunTable
	t.TotalRuns = len(runs)
	if len(runs) == 0 {
		return t
	}
	var kindCount [3]int
	var pat [3][3]int
	for _, r := range runs {
		kindCount[r.Kind]++
		pat[r.Kind][r.Pattern]++
	}
	pct := func(n, d int) float64 {
		if d == 0 {
			return 0
		}
		return 100 * float64(n) / float64(d)
	}
	t.ReadPct = pct(kindCount[RunRead], len(runs))
	t.WritePct = pct(kindCount[RunWrite], len(runs))
	t.ReadWritePct = pct(kindCount[RunReadWrite], len(runs))
	for kind := 0; kind < 3; kind++ {
		for p := 0; p < 3; p++ {
			v := pct(pat[kind][p], kindCount[kind])
			switch RunKind(kind) {
			case RunRead:
				t.Read[p] = v
			case RunWrite:
				t.Write[p] = v
			case RunReadWrite:
				t.ReadWrite[p] = v
			}
		}
	}
	return t
}

// SizeProfilePoint is one file-size bucket of Figure 2.
type SizeProfilePoint struct {
	// SizeCeil is the bucket's upper file-size bound (bytes, powers of
	// two).
	SizeCeil uint64
	// Cumulative percentage of all accessed bytes from files of size
	// <= SizeCeil, total and per pattern.
	TotalPct, EntirePct, SequentialPct, RandomPct float64
}

// SizeProfile builds Figure 2: the cumulative percentage of bytes
// accessed, by the size of the file and the pattern of the run moving
// them.
func SizeProfile(runs []Run) []SizeProfilePoint {
	const minExp, maxExp = 10, 28 // 1 KB .. 256 MB
	var total float64
	var byPat [3][maxExp - minExp + 1]float64
	var all [maxExp - minExp + 1]float64
	for _, r := range runs {
		if r.Bytes == 0 {
			continue
		}
		e := minExp
		for (uint64(1)<<uint(e)) < r.FileSize && e < maxExp {
			e++
		}
		idx := e - minExp
		all[idx] += float64(r.Bytes)
		byPat[r.Pattern][idx] += float64(r.Bytes)
		total += float64(r.Bytes)
	}
	if total == 0 {
		return nil
	}
	var out []SizeProfilePoint
	var cumAll float64
	var cumPat [3]float64
	for i := 0; i <= maxExp-minExp; i++ {
		cumAll += all[i]
		for p := 0; p < 3; p++ {
			cumPat[p] += byPat[p][i]
		}
		out = append(out, SizeProfilePoint{
			SizeCeil:      1 << uint(i+minExp),
			TotalPct:      100 * cumAll / total,
			EntirePct:     100 * cumPat[PatternEntire] / total,
			SequentialPct: 100 * cumPat[PatternSequential] / total,
			RandomPct:     100 * cumPat[PatternRandom] / total,
		})
	}
	return out
}

// SeqMetricPoint is one run-size bucket of Figure 5.
type SeqMetricPoint struct {
	// BytesCeil is the run-size bucket bound (16 KB .. 64 MB).
	BytesCeil uint64
	// Read/Write metrics averaged over runs in the bucket, with small
	// jumps allowed (k=10) and not (k=1). NaN-free: buckets with no
	// runs report -1.
	ReadK10, ReadK1, WriteK10, WriteK1 float64
	// CumRunsPct is the cumulative percentage of runs with size <=
	// BytesCeil (the bottom panels of Figure 5).
	CumRunsPct, CumReadRunsPct, CumWriteRunsPct float64
}

// SequentialityProfile builds Figure 5 from runs detected with
// JumpBlocks=10 (Metric) — MetricK1 supplies the strict curves.
func SequentialityProfile(runs []Run) []SeqMetricPoint {
	const minExp, maxExp = 14, 26 // 16 KB .. 64 MB
	nb := maxExp - minExp + 1
	type acc struct {
		k10, k1 float64
		n       int
	}
	var readB, writeB [16]acc
	var runCount, readCount, writeCount [16]int
	var totalRuns, totalRead, totalWrite int
	for _, r := range runs {
		e := minExp
		for (uint64(1)<<uint(e)) < r.Bytes && e < maxExp {
			e++
		}
		i := e - minExp
		runCount[i]++
		totalRuns++
		switch r.Kind {
		case RunRead:
			readB[i].k10 += r.Metric
			readB[i].k1 += r.MetricK1
			readB[i].n++
			readCount[i]++
			totalRead++
		case RunWrite:
			writeB[i].k10 += r.Metric
			writeB[i].k1 += r.MetricK1
			writeB[i].n++
			writeCount[i]++
			totalWrite++
		}
	}
	var out []SeqMetricPoint
	var cum, cumR, cumW int
	for i := 0; i < nb; i++ {
		p := SeqMetricPoint{BytesCeil: 1 << uint(i+minExp),
			ReadK10: -1, ReadK1: -1, WriteK10: -1, WriteK1: -1}
		if readB[i].n > 0 {
			p.ReadK10 = readB[i].k10 / float64(readB[i].n)
			p.ReadK1 = readB[i].k1 / float64(readB[i].n)
		}
		if writeB[i].n > 0 {
			p.WriteK10 = writeB[i].k10 / float64(writeB[i].n)
			p.WriteK1 = writeB[i].k1 / float64(writeB[i].n)
		}
		cum += runCount[i]
		cumR += readCount[i]
		cumW += writeCount[i]
		if totalRuns > 0 {
			p.CumRunsPct = 100 * float64(cum) / float64(totalRuns)
		}
		if totalRead > 0 {
			p.CumReadRunsPct = 100 * float64(cumR) / float64(totalRead)
		}
		if totalWrite > 0 {
			p.CumWriteRunsPct = 100 * float64(cumW) / float64(totalWrite)
		}
		out = append(out, p)
	}
	return out
}
