package analysis

import (
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/stats"
)

// Filename-based attribute prediction (§6.3): nearly all CAMPUS files
// fall into four categories — lock files, dot files, mail-composer
// files, and mailboxes — and the name predicts size, lifespan, and
// access pattern.

// File categories.
type NameCategory int

// Category values.
const (
	CatLock NameCategory = iota
	CatDot
	CatComposer
	CatMailbox
	CatTemp
	CatSource
	CatOther
	numCategories
)

var categoryNames = [numCategories]string{
	"lock", "dot", "composer", "mailbox", "temp", "source", "other",
}

// Name reports the category's display name.
func (c NameCategory) String() string { return categoryNames[c] }

// Categorize assigns a filename to its category using only the last
// pathname component, as the paper does.
func Categorize(name string) NameCategory {
	switch {
	case name == "":
		return CatOther
	case strings.HasSuffix(name, ".lock") || name == "lock" || strings.Contains(name, "lock"):
		return CatLock
	case strings.HasPrefix(name, "."):
		return CatDot
	case strings.HasPrefix(name, "pico.") || strings.HasPrefix(name, "#") ||
		strings.HasPrefix(name, "Applet_"):
		return CatComposer
	case name == "inbox" || name == "mbox" || name == "saved-messages" ||
		name == "sent-mail" || strings.HasSuffix(name, ".mbox"):
		return CatMailbox
	case strings.HasSuffix(name, "~") || strings.HasSuffix(name, ".tmp") ||
		strings.HasSuffix(name, ".o") || strings.HasSuffix(name, ".out"):
		return CatTemp
	case strings.HasSuffix(name, ".c") || strings.HasSuffix(name, ".h") ||
		strings.HasSuffix(name, ".tex") || strings.HasSuffix(name, ".txt"):
		return CatSource
	default:
		return CatOther
	}
}

// fileLife tracks one file instance from creation.
type fileLife struct {
	name    string
	cat     NameCategory
	born    float64
	died    float64
	deleted bool
	maxSize uint64
	reads   int64
	writes  int64
	readSeq bool
}

// CategoryStats summarizes one category's observed behaviour.
type CategoryStats struct {
	Category NameCategory
	// Created and Deleted count file instances created (and of those,
	// deleted) inside the window.
	Created int64
	Deleted int64
	// Lifetimes of created-and-deleted instances (seconds).
	Lifetimes *stats.CDF
	// Sizes are the max observed sizes of created instances.
	Sizes *stats.CDF
	// ReadFrac is reads/(reads+writes) across instances.
	ReadOps, WriteOps int64
}

// NameReport is the full §6.3 output.
type NameReport struct {
	PerCategory [numCategories]*CategoryStats
	// CreatedAndDeleted counts instances both created and deleted in
	// the window; LockFracOfDeleted is the share of those that are
	// locks (96% on CAMPUS).
	CreatedAndDeleted int64
	LockFracOfDeleted float64
	// SizeAccuracy and LifeAccuracy report how well the category
	// (i.e. the filename) predicts the file's size class and lifetime
	// class: the fraction of instances whose class equals their
	// category's modal class.
	SizeAccuracy float64
	LifeAccuracy float64
}

// sizeClass buckets a size into one of a few coarse classes (zero, one
// block, small, large) — the granularity a file system would act on.
func sizeClass(size uint64) int {
	switch {
	case size == 0:
		return 0
	case size <= 8*1024:
		return 1
	case size <= 64*1024:
		return 2
	case size <= 1<<20:
		return 3
	default:
		return 4
	}
}

// lifeClass buckets a lifetime: sub-second, sub-minute, sub-hour, long.
func lifeClass(life float64) int {
	switch {
	case life < 1:
		return 0
	case life < 60:
		return 1
	case life < 3600:
		return 2
	default:
		return 3
	}
}

// NamesStream is the incremental form of AnalyzeNames: feed it
// time-ordered operations with Add, then build the report with
// Report once the window end is known. Finished instances fold into
// per-category aggregates as they die, so the live state is just the
// open instances and the name map — which is what makes the stream's
// partial state serializable and resumable across process boundaries.
type NamesStream struct {
	lives map[core.FH]*fileLife   // open instances, by NewFH
	names map[nameBinding]core.FH // (dir,name) → fh

	agg namesAgg
}

// namesAgg accumulates the per-category reductions over finished
// instances. Every field is a sum, a histogram, or a CDF sample
// multiset, so folding instances one at a time (or merging a resumed
// aggregate) reproduces exactly what AnalyzeNames computes over the
// full done list.
type namesAgg struct {
	created   [numCategories]int64
	deleted   [numCategories]int64
	readOps   [numCategories]int64
	writeOps  [numCategories]int64
	lifetimes [numCategories]*stats.CDF
	sizes     [numCategories]*stats.CDF
	sizeHist  [numCategories][5]int64
	lifeHist  [numCategories][4]int64

	lockDeleted  int64
	totalDeleted int64
}

func newNamesAgg() namesAgg {
	var a namesAgg
	for c := range a.lifetimes {
		a.lifetimes[c] = &stats.CDF{}
		a.sizes[c] = &stats.CDF{}
	}
	return a
}

// fold accumulates one finished instance.
func (a *namesAgg) fold(fl *fileLife) {
	a.created[fl.cat]++
	a.sizes[fl.cat].Add(float64(fl.maxSize))
	a.readOps[fl.cat] += fl.reads
	a.writeOps[fl.cat] += fl.writes
	a.sizeHist[fl.cat][sizeClass(fl.maxSize)]++
	if fl.deleted {
		a.deleted[fl.cat]++
		a.totalDeleted++
		life := fl.died - fl.born
		a.lifetimes[fl.cat].Add(life)
		a.lifeHist[fl.cat][lifeClass(life)]++
		if fl.cat == CatLock {
			a.lockDeleted++
		}
	}
}

// merge folds o's reductions into a.
func (a *namesAgg) merge(o *namesAgg) {
	for c := range a.created {
		a.created[c] += o.created[c]
		a.deleted[c] += o.deleted[c]
		a.readOps[c] += o.readOps[c]
		a.writeOps[c] += o.writeOps[c]
		a.lifetimes[c].Merge(o.lifetimes[c])
		a.sizes[c].Merge(o.sizes[c])
		for j := range a.sizeHist[c] {
			a.sizeHist[c][j] += o.sizeHist[c][j]
		}
		for j := range a.lifeHist[c] {
			a.lifeHist[c][j] += o.lifeHist[c][j]
		}
	}
	a.lockDeleted += o.lockDeleted
	a.totalDeleted += o.totalDeleted
}

// NewNamesStream returns an empty stream.
func NewNamesStream() *NamesStream {
	return &NamesStream{
		lives: make(map[core.FH]*fileLife),
		names: make(map[nameBinding]core.FH),
		agg:   newNamesAgg(),
	}
}

// Add folds one operation into the stream. Ops must arrive in time
// order.
func (n *NamesStream) Add(op *core.Op) {
	key := func(dir core.FH, name string) nameBinding { return nameBinding{dir, name} }
	switch op.Proc {
	case core.ProcCreate, core.ProcMkdir, core.ProcSymlink:
		if op.NewFH == 0 {
			return
		}
		// Recreating a name orphans any previous instance.
		n.names[key(op.FH, op.Name)] = op.NewFH
		if _, exists := n.lives[op.NewFH]; !exists {
			n.lives[op.NewFH] = &fileLife{
				name: op.Name, cat: Categorize(op.Name),
				born: op.T, maxSize: op.Size, readSeq: true,
			}
		}
	case core.ProcLookup:
		if op.NewFH != 0 {
			n.names[key(op.FH, op.Name)] = op.NewFH
		}
	case core.ProcRename:
		k := key(op.FH, op.Name)
		if fh, ok := n.names[k]; ok {
			delete(n.names, k)
			n.names[key(op.FH2, op.Name2)] = fh
		}
	case core.ProcRemove:
		fh, ok := n.names[key(op.FH, op.Name)]
		if !ok {
			return
		}
		delete(n.names, key(op.FH, op.Name))
		if fl, ok := n.lives[fh]; ok {
			fl.died = op.T
			fl.deleted = true
			n.agg.fold(fl)
			delete(n.lives, fh)
		}
	case core.ProcWrite:
		if fl, ok := n.lives[op.FH]; ok {
			fl.writes++
			if op.Size > fl.maxSize {
				fl.maxSize = op.Size
			}
		}
	case core.ProcRead:
		if fl, ok := n.lives[op.FH]; ok {
			fl.reads++
			if op.Size > fl.maxSize {
				fl.maxSize = op.Size
			}
		}
	case core.ProcSetattr:
		if fl, ok := n.lives[op.FH]; ok && op.Size > fl.maxSize {
			fl.maxSize = op.Size
		}
	}
}

// Merge folds other into n, as if n's stream had continued with
// other's: open instances and name bindings take other's entries (the
// instances are taken over, not copied), and the aggregates sum.
func (n *NamesStream) Merge(other *NamesStream) {
	for fh, fl := range other.lives {
		n.lives[fh] = fl
	}
	for nb, fh := range other.names {
		n.names[nb] = fh
	}
	n.agg.merge(&other.agg)
}

// Report builds the §6.3 report as of windowEnd: instances still alive
// count as created (not deleted) with their current max size. The
// stream itself is left untouched — Report folds the open instances
// into a copy of the aggregate, so it can be called mid-stream.
func (n *NamesStream) Report(windowEnd float64) *NameReport {
	agg := newNamesAgg()
	agg.merge(&n.agg)
	for _, fl := range n.lives {
		end := *fl
		end.died = windowEnd
		agg.fold(&end)
	}

	rep := &NameReport{}
	for c := 0; c < int(numCategories); c++ {
		rep.PerCategory[c] = &CategoryStats{
			Category:  NameCategory(c),
			Created:   agg.created[c],
			Deleted:   agg.deleted[c],
			Lifetimes: agg.lifetimes[c],
			Sizes:     agg.sizes[c],
			ReadOps:   agg.readOps[c],
			WriteOps:  agg.writeOps[c],
		}
	}
	rep.CreatedAndDeleted = agg.totalDeleted
	if agg.totalDeleted > 0 {
		rep.LockFracOfDeleted = float64(agg.lockDeleted) / float64(agg.totalDeleted)
	}

	// Prediction accuracy: predict each instance's class as its
	// category's modal class.
	var sizeRight, sizeTotal, lifeRight, lifeTotal int64
	for c := 0; c < int(numCategories); c++ {
		if m, n := modal(agg.sizeHist[c][:]); n > 0 {
			sizeRight += agg.sizeHist[c][m]
			sizeTotal += n
		}
		if m, n := modal(agg.lifeHist[c][:]); n > 0 {
			lifeRight += agg.lifeHist[c][m]
			lifeTotal += n
		}
	}
	if sizeTotal > 0 {
		rep.SizeAccuracy = float64(sizeRight) / float64(sizeTotal)
	}
	if lifeTotal > 0 {
		rep.LifeAccuracy = float64(lifeRight) / float64(lifeTotal)
	}
	return rep
}

// AnalyzeNames builds the §6.3 report from a joined op stream. It is
// the one-shot form of NamesStream.
func AnalyzeNames(ops []*core.Op, windowEnd float64) *NameReport {
	n := NewNamesStream()
	for _, op := range ops {
		n.Add(op)
	}
	return n.Report(windowEnd)
}

func modal(hist []int64) (idx int, total int64) {
	for i, v := range hist {
		total += v
		if v > hist[idx] {
			idx = i
		}
	}
	return idx, total
}

// TopNames returns the most frequently referenced filenames in the op
// stream — useful for inspecting what dominates a workload.
func TopNames(ops []*core.Op, n int) []string {
	counts := make(map[string]int64)
	for _, op := range ops {
		if op.Name != "" {
			counts[op.Name]++
		}
	}
	names := make([]string, 0, len(counts))
	for name := range counts {
		names = append(names, name)
	}
	sort.Slice(names, func(i, j int) bool {
		if counts[names[i]] != counts[names[j]] {
			return counts[names[i]] > counts[names[j]]
		}
		return names[i] < names[j]
	})
	if len(names) > n {
		names = names[:n]
	}
	return names
}
