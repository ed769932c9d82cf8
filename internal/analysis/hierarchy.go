package analysis

import (
	"strings"

	"repro/internal/core"
)

// Hierarchy reconstructs the active part of the server's namespace
// on the fly from lookup/create/rename traffic, as §4.1.1 describes:
// after a few minutes of trace, almost every handle's parent is known.
type Hierarchy struct {
	// parent maps a file handle to its (parent handle, name) edge.
	parent map[core.FH]nameBinding
	// byEdge is the reverse index, (dir, name) → most recent child, so
	// renames and removes resolve in O(1) instead of scanning parent.
	// Entries can go stale when a child re-binds under another name;
	// resolve validates against parent before trusting one.
	byEdge map[nameBinding]core.FH
	// known tracks handles seen in any position.
	known map[core.FH]bool

	// Coverage counters: of the ops naming a primary handle, how many
	// had that handle already resolvable to a path.
	resolvable int64
	total      int64

	// The same counters over the ops from warmup seconds after the
	// first op on: the reconstruction's steady-state coverage.
	warmup                    float64
	started                   bool
	start                     float64
	warmResolvable, warmTotal int64
}

// NewHierarchy returns an empty namespace model whose warm-up coverage
// counts ops from warmup seconds after the first one.
func NewHierarchy(warmup float64) *Hierarchy {
	return &Hierarchy{
		parent: make(map[core.FH]nameBinding),
		byEdge: make(map[nameBinding]core.FH),
		known:  make(map[core.FH]bool),
		warmup: warmup,
	}
}

// Add feeds one op through the reconstruction, updating edges and
// coverage statistics. Ops must be fed in trace order.
func (h *Hierarchy) Add(op *core.Op) {
	if !h.started {
		h.start = op.T + h.warmup
		h.started = true
	}
	// Coverage check first: is this op's handle already placeable?
	if op.FH != 0 {
		known := h.known[op.FH]
		h.total++
		if known {
			h.resolvable++
		}
		if op.T >= h.start {
			h.warmTotal++
			if known {
				h.warmResolvable++
			}
		}
	}
	switch op.Proc {
	case core.ProcLookup, core.ProcCreate, core.ProcMkdir, core.ProcSymlink:
		if op.NewFH != 0 && op.Name != "" {
			e := nameBinding{dir: op.FH, name: op.Name}
			if old, ok := h.parent[op.NewFH]; ok && old != e && h.byEdge[old] == op.NewFH {
				// The child re-binds under a new edge; drop the index
				// entry for the old one so it cannot act on the child.
				delete(h.byEdge, old)
			}
			h.parent[op.NewFH] = e
			h.byEdge[e] = op.NewFH
			h.known[op.NewFH] = true
			h.known[op.FH] = true
		}
	case core.ProcRename:
		// Move the child currently bound to the old edge, if we know it.
		old := nameBinding{dir: op.FH, name: op.Name}
		if fh, ok := h.resolve(old); ok {
			next := nameBinding{dir: op.FH2, name: op.Name2}
			h.parent[fh] = next
			delete(h.byEdge, old)
			h.byEdge[next] = fh
		}
	case core.ProcRemove, core.ProcRmdir:
		e := nameBinding{dir: op.FH, name: op.Name}
		if fh, ok := h.resolve(e); ok {
			delete(h.parent, fh)
			delete(h.byEdge, e)
		}
	default:
		if op.FH != 0 {
			h.known[op.FH] = true
		}
	}
}

// resolve returns a child whose current parent edge is e. The reverse
// index answers in O(1); a stale entry (the indexed child has since
// re-bound elsewhere) falls back to the scan the index replaces, which
// also repairs the index. ok is false when no child is bound to e.
func (h *Hierarchy) resolve(e nameBinding) (core.FH, bool) {
	if fh, ok := h.byEdge[e]; ok && h.parent[fh] == e {
		return fh, true
	}
	for fh, pe := range h.parent {
		if pe == e {
			h.byEdge[e] = fh
			return fh, true
		}
	}
	delete(h.byEdge, e)
	return 0, false
}

// Path reconstructs the name of a handle from known edges, ending at a
// handle with no known parent (rendered as its hex form through the
// intern table's reverse lookup). ok is false when fh itself is
// unknown.
func (h *Hierarchy) Path(fh core.FH) (string, bool) {
	if !h.known[fh] {
		return "", false
	}
	var parts []string
	cur := fh
	for depth := 0; depth < 64; depth++ {
		e, ok := h.parent[cur]
		if !ok {
			break
		}
		parts = append([]string{e.name}, parts...)
		cur = e.dir
	}
	return "[" + cur.String() + "]/" + strings.Join(parts, "/"), true
}

// Known reports whether fh has been seen in any position.
func (h *Hierarchy) Known(fh core.FH) bool { return h.known[fh] }

// Coverage reports the fraction of handle-bearing ops whose handle was
// already known when the op arrived.
func (h *Hierarchy) Coverage() float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.resolvable) / float64(h.total)
}

// WarmCoverage reports Coverage over the ops past the warm-up.
func (h *Hierarchy) WarmCoverage() float64 {
	if h.warmTotal == 0 {
		return 0
	}
	return float64(h.warmResolvable) / float64(h.warmTotal)
}

// Edges reports the number of known parent edges.
func (h *Hierarchy) Edges() int { return len(h.parent) }

// Merge folds other into h, as if h's stream had continued with
// other's: edges and known handles take other's entries, counters sum,
// and the warm-up clock keeps h's start if it has one.
func (h *Hierarchy) Merge(other *Hierarchy) {
	for fh, e := range other.parent {
		h.parent[fh] = e
	}
	for e, fh := range other.byEdge {
		h.byEdge[e] = fh
	}
	for fh := range other.known {
		h.known[fh] = true
	}
	h.resolvable += other.resolvable
	h.total += other.total
	if !h.started {
		h.started, h.start = other.started, other.start
	}
	h.warmResolvable += other.warmResolvable
	h.warmTotal += other.warmTotal
}

// CoverageAfterWarmup runs the reconstruction over ops, ignoring the
// first warmup seconds, and returns the post-warmup coverage — the
// paper's claim is that this approaches 1 within minutes.
func CoverageAfterWarmup(ops []*core.Op, warmup float64) float64 {
	h := NewHierarchy(warmup)
	for _, op := range ops {
		h.Add(op)
	}
	return h.WarmCoverage()
}
