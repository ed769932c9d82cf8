package analysis

import (
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// This file pins the deep-copy contract of every Clone in clone.go: a
// clone and its original never share mutable state. The harness checks
// three properties per type: a clone taken mid-stream equals a fresh
// instance fed the same prefix; feeding the original past the clone
// point leaves the clone untouched; and taking a clone leaves the
// original's final result identical to a never-cloned run.

// cloneable adapts one accumulator type to the shared harness.
type cloneable struct {
	feed  func(*core.Op)
	clone func() cloneable
	fp    func() string
}

// cloneOps is a fixed stream covering the paths the accumulators
// branch on: creates, lookups, reads, writes with wcc sizes, a rename,
// removes, and categorized names (lock, mailbox, temp).
func cloneOps() []*core.Op {
	dir := core.InternFH("d0")
	mk := func(t float64, proc string, mut func(*core.Op)) *core.Op {
		o := &core.Op{T: t, Replied: true, Proc: core.MustProc(proc), Client: 1}
		mut(o)
		return o
	}
	var ops []*core.Op
	for i, name := range []string{"file.lock", "inbox", "a.tmp", "notes.c", "plain"} {
		fh := core.InternFH(fmt.Sprintf("f%d", i))
		t0 := float64(1 + i*9)
		ops = append(ops,
			mk(t0, "create", func(o *core.Op) { o.FH = dir; o.Name = name; o.NewFH = fh }),
			mk(t0+1, "lookup", func(o *core.Op) { o.FH = dir; o.Name = name; o.NewFH = fh }),
			mk(t0+2, "write", func(o *core.Op) {
				o.FH = fh
				o.Offset = 0
				o.Count = 16384
				o.RCount = 16384
				o.PreSize = 0
				o.HasPre = true
				o.Size = 16384
			}),
			mk(t0+3, "read", func(o *core.Op) { o.FH = fh; o.Offset = 0; o.Count = 8192; o.RCount = 8192 }),
		)
	}
	f0 := core.InternFH("f0")
	ops = append(ops,
		mk(50, "rename", func(o *core.Op) {
			o.FH = dir
			o.Name = "plain"
			o.FH2 = dir
			o.Name2 = "renamed"
		}),
		mk(55, "remove", func(o *core.Op) { o.FH = dir; o.Name = "file.lock" }),
		mk(60, "write", func(o *core.Op) {
			o.FH = f0
			o.Offset = 0
			o.Count = 8192
			o.RCount = 8192
			o.PreSize = 16384
			o.HasPre = true
			o.Size = 16384
		}),
		mk(70, "remove", func(o *core.Op) { o.FH = dir; o.Name = "a.tmp" }),
	)
	return ops
}

func summaryCloneable(s *Summary) cloneable {
	return cloneable{
		feed:  s.Add,
		clone: func() cloneable { return summaryCloneable(s.Clone()) },
		fp:    func() string { return fmt.Sprintf("%+v", *s) },
	}
}

func hourlyCloneable(h *HourlySeries) cloneable {
	// Open series grow independently, so pad the shorter ones with
	// zeros instead of indexing past their end.
	at := func(tb *stats.TimeBuckets, i int) float64 {
		if i >= tb.NumBuckets() {
			return 0
		}
		return tb.Bucket(i)
	}
	return cloneable{
		feed:  h.Add,
		clone: func() cloneable { return hourlyCloneable(h.Clone()) },
		fp: func() string {
			var b strings.Builder
			for i := 0; i < h.Ops.NumBuckets(); i++ {
				fmt.Fprintf(&b, "%v/%v/%v/%v/%v\n", at(h.Ops, i), at(h.ReadOps, i),
					at(h.WriteOps, i), at(h.BytesRead, i), at(h.BytesWrite, i))
			}
			return b.String()
		},
	}
}

func accessMapCloneable(m AccessMap) cloneable {
	return cloneable{
		feed:  m.Add,
		clone: func() cloneable { return accessMapCloneable(m.Clone()) },
		fp: func() string {
			fhs := make([]core.FH, 0, len(m))
			for fh := range m {
				fhs = append(fhs, fh)
			}
			sort.Slice(fhs, func(i, j int) bool { return fhs[i] < fhs[j] })
			var b strings.Builder
			for _, fh := range fhs {
				fmt.Fprintf(&b, "%v: %+v\n", fh, m[fh])
			}
			return b.String()
		},
	}
}

func blockLifeCloneable(s *BlockLifeStream) cloneable {
	return cloneable{
		feed:  s.Add,
		clone: func() cloneable { return blockLifeCloneable(s.Clone()) },
		// Result finalizes, so fingerprint a throwaway clone — which is
		// exactly how cmd/nfsmond serves mid-stream views.
		fp: func() string {
			res := s.Clone().Result()
			return fmt.Sprintf("%d %v %d %v %d %d %v %v", res.Births, res.BirthCause,
				res.Deaths, res.DeathCause, res.EndSurplus,
				res.Lifetimes.N(), res.Lifetimes.Percentile(50), res.Lifetimes.Percentile(90))
		},
	}
}

func peakHourCloneable(p *PeakHourInstances) cloneable {
	return cloneable{
		feed:  p.Add,
		clone: func() cloneable { return peakHourCloneable(p.Clone()) },
		fp:    func() string { return fmt.Sprintf("%+v", p.Clone().Finish()) },
	}
}

func mailboxCloneable(m *MailboxShare) cloneable {
	return cloneable{
		feed:  m.Add,
		clone: func() cloneable { return mailboxCloneable(m.Clone()) },
		fp:    func() string { return fmt.Sprintf("%+v", m.Clone().Finish()) },
	}
}

func namesCloneable(n *NamesStream) cloneable {
	return cloneable{
		feed:  n.Add,
		clone: func() cloneable { return namesCloneable(n.Clone()) },
		fp: func() string {
			rep := n.Report(100)
			var b strings.Builder
			for _, cs := range rep.PerCategory {
				fmt.Fprintf(&b, "%s %d %d %v %v %d %d\n", cs.Category, cs.Created, cs.Deleted,
					cs.Lifetimes.Percentile(50), cs.Sizes.Percentile(98), cs.ReadOps, cs.WriteOps)
			}
			fmt.Fprintf(&b, "%v %v %v", rep.LockFracOfDeleted, rep.SizeAccuracy, rep.LifeAccuracy)
			return b.String()
		},
	}
}

func hierarchyCloneable(h *Hierarchy) cloneable {
	return cloneable{
		feed:  h.Add,
		clone: func() cloneable { return hierarchyCloneable(h.Clone()) },
		fp: func() string {
			var b strings.Builder
			fmt.Fprintf(&b, "cov=%v warm=%v", h.Coverage(), h.WarmCoverage())
			for i := 0; i < 5; i++ {
				fh := core.InternFH(fmt.Sprintf("f%d", i))
				fmt.Fprintf(&b, " %v:%v", fh, h.Known(fh))
			}
			return b.String()
		},
	}
}

func TestCloneIndependence(t *testing.T) {
	ops := cloneOps()
	cut := len(ops) * 2 / 3
	cases := []struct {
		name string
		mk   func() cloneable
	}{
		{"summary", func() cloneable { return summaryCloneable(NewSummary(1)) }},
		{"hourly-open", func() cloneable { return hourlyCloneable(NewHourlyOpen()) }},
		{"hourly-fixed", func() cloneable { return hourlyCloneable(NewHourly(100)) }},
		{"accessmap", func() cloneable { return accessMapCloneable(make(AccessMap)) }},
		{"blocklife", func() cloneable { return blockLifeCloneable(NewBlockLifeStream(0, 50, 50)) }},
		{"peakhour", func() cloneable { return peakHourCloneable(NewPeakHourInstances(0, 100)) }},
		{"mailbox", func() cloneable { return mailboxCloneable(NewMailboxShare()) }},
		{"names", func() cloneable { return namesCloneable(NewNamesStream()) }},
		{"hierarchy", func() cloneable { return hierarchyCloneable(NewHierarchy(10)) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// A clone taken mid-stream equals a fresh run over the prefix.
			full := tc.mk()
			for _, op := range ops[:cut] {
				full.feed(op)
			}
			mid := full.clone()
			midFP := mid.fp()
			prefix := tc.mk()
			for _, op := range ops[:cut] {
				prefix.feed(op)
			}
			if midFP != prefix.fp() {
				t.Fatalf("clone differs from fresh prefix run:\n--- clone ---\n%s\n--- fresh ---\n%s", midFP, prefix.fp())
			}

			// Feeding the original past the clone point cannot move the
			// clone.
			for _, op := range ops[cut:] {
				full.feed(op)
			}
			if got := mid.fp(); got != midFP {
				t.Fatalf("clone mutated by later feeds:\n--- before ---\n%s\n--- after ---\n%s", midFP, got)
			}

			// Feeding the clone cannot move the original, and taking
			// clones leaves the original identical to a never-cloned run.
			snap := full.fp()
			for _, op := range ops[cut:] {
				mid.feed(op)
			}
			if got := full.fp(); got != snap {
				t.Fatalf("original mutated by clone feeds:\n--- before ---\n%s\n--- after ---\n%s", snap, got)
			}
			fresh := tc.mk()
			for _, op := range ops {
				fresh.feed(op)
			}
			if full.fp() != fresh.fp() {
				t.Fatalf("cloned run differs from never-cloned run:\n--- cloned ---\n%s\n--- fresh ---\n%s", full.fp(), fresh.fp())
			}
		})
	}
}

// TestAccessMapCloneCapTrick pins the three-index-slice trick: after a
// clone, appends to the original for an already-shared file must
// reallocate rather than write into the clone's view.
func TestAccessMapCloneCapTrick(t *testing.T) {
	m := make(AccessMap)
	fh := core.InternFH("captrick")
	rd := func(t float64, off uint64) *core.Op {
		return &core.Op{T: t, Replied: true, Proc: core.MustProc("read"),
			FH: fh, Offset: off, Count: 8192, RCount: 8192}
	}
	m.Add(rd(1, 0))
	m.Add(rd(2, 8192))
	cp := m.Clone()
	if len(cp[fh]) != 2 {
		t.Fatalf("clone sees %d accesses, want 2", len(cp[fh]))
	}
	// Append past the clone's capped view; the clone must neither grow
	// nor see mutated elements.
	m.Add(rd(3, 16384))
	if len(cp[fh]) != 2 {
		t.Fatalf("clone grew to %d accesses", len(cp[fh]))
	}
	if len(m[fh]) != 3 {
		t.Fatalf("original has %d accesses, want 3", len(m[fh]))
	}
	if cp[fh][1].T != 2 {
		t.Fatalf("clone element mutated: %+v", cp[fh][1])
	}

	// Both sides appending into spare capacity: the original's list has
	// room past the clone point, so an uncapped clone would write its
	// next access into the array the original appends to as well.
	m.Add(rd(4, 24576))
	m.Add(rd(5, 32768))
	cp = m.Clone()
	if cap(m[fh]) == len(m[fh]) {
		t.Fatalf("want spare capacity in the original's list (len %d cap %d)", len(m[fh]), cap(m[fh]))
	}
	cp.Add(rd(6, 40960))
	m.Add(rd(7, 49152))
	if got := cp[fh][len(cp[fh])-1].T; got != 6 {
		t.Fatalf("clone's own append overwritten by the original's: last access at t=%v", got)
	}
}
