package pipeline

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/workload"
)

// This file pins the generic sharded body (sharded.go) for every
// analyzer at once: forks are independent of the original, a state
// section survives encode → decode → encode byte for byte, and newLike
// and IsSequential describe each analyzer's configuration and
// composition mode.

// contractCase is one analyzer under the generic path.
type contractCase struct {
	name string
	mk   func() Analyzer
	seq  bool
}

func contractCases(span float64) []contractCase {
	return []contractCase{
		{"summary", func() Analyzer { return &SummaryAnalyzer{Days: span / workload.Day} }, false},
		{"hourly", func() Analyzer { return &HourlyAnalyzer{Span: span} }, false},
		{"runs", func() Analyzer { return &RunsAnalyzer{Config: analysis.DefaultRunConfig(10)} }, false},
		{"reorder", func() Analyzer { return &ReorderSweepAnalyzer{WindowsMS: sweepWindows} }, false},
		{"blocklife", func() Analyzer { return &BlockLifeAnalyzer{Start: 0, Phase: span / 2, Margin: span / 2} }, true},
		{"peakhour", func() Analyzer { return &PeakHourAnalyzer{From: 10 * workload.Hour, To: 11 * workload.Hour} }, false},
		{"mailbox", func() Analyzer { return &MailboxAnalyzer{} }, false},
		{"hierarchy", func() Analyzer { return &HierarchyAnalyzer{Warmup: 600} }, true},
		{"names", func() Analyzer { return &NamesAnalyzer{} }, true},
	}
}

// tables renders a closed analyzer's results as the CLI would see them.
func tables(a Analyzer, end float64) string {
	switch a := a.(type) {
	case *SummaryAnalyzer:
		return fmt.Sprintf("%+v", *a.Result)
	case *HourlyAnalyzer:
		return fmt.Sprintf("%v %v", a.Result.VarianceTable(false), a.Result.RWRatios())
	case *RunsAnalyzer:
		return fmt.Sprintf("%+v", a.Table())
	case *ReorderSweepAnalyzer:
		return fmt.Sprintf("%+v", a.Result)
	case *BlockLifeAnalyzer:
		r := a.Result
		return fmt.Sprintf("%d %v %d %v %d n=%d p50=%v", r.Births, r.BirthCause, r.Deaths, r.DeathCause,
			r.EndSurplus, r.Lifetimes.N(), r.Lifetimes.Percentile(50))
	case *PeakHourAnalyzer:
		return fmt.Sprintf("%+v", a.Result)
	case *MailboxAnalyzer:
		return fmt.Sprintf("%d/%d", a.MailboxBytes, a.TotalBytes)
	case *HierarchyAnalyzer:
		return fmt.Sprint(a.Coverage)
	case *NamesAnalyzer:
		var b bytes.Buffer
		rep := a.ReportAt(end)
		for _, cs := range rep.PerCategory {
			fmt.Fprintf(&b, "%s %d %d %d %d %v %v; ", cs.Category, cs.Created, cs.Deleted, cs.ReadOps, cs.WriteOps,
				cs.Lifetimes.Percentile(50), cs.Sizes.Percentile(98))
		}
		fmt.Fprintf(&b, "%v %v %v", rep.LockFracOfDeleted, rep.SizeAccuracy, rep.LifeAccuracy)
		return b.String()
	}
	panic(fmt.Sprintf("no tables for %T", a))
}

func TestAnalyzerContract(t *testing.T) {
	ops := genOps(t, 1)
	span := ops[len(ops)-1].T - ops[0].T
	cut := len(ops) / 2
	end := ops[len(ops)-1].T

	for _, tc := range contractCases(span) {
		t.Run(tc.name, func(t *testing.T) {
			a := tc.mk()
			if got := a.(statefulAnalyzer).newLike(); !reflect.DeepEqual(got, tc.mk()) {
				t.Errorf("newLike = %+v, want %+v", got, tc.mk())
			}
			if got := IsSequential(a); got != tc.seq {
				t.Errorf("IsSequential = %v, want %v", got, tc.seq)
			}

			// A fork is independent: it is fed a different continuation
			// before the original is fed the rest of the stream, and each
			// ends with the tables of one uninterrupted run over its own
			// ops. State the two shared would mix the streams.
			fork, mid := len(ops)/10, len(ops)/2
			lv := NewLive(Config{Workers: 3}, a)
			for _, op := range ops[:fork] {
				lv.Feed(op)
			}
			snap, err := lv.Fork()
			if err != nil {
				t.Fatal(err)
			}
			for _, op := range ops[mid:] {
				snap.Feed(op)
			}
			for _, op := range ops[fork:] {
				lv.Feed(op)
			}
			lv.Finish()
			snap.Finish()
			skipped, whole := tc.mk(), tc.mk()
			RunSlice(Config{Workers: 1}, append(ops[:fork:fork], ops[mid:]...), skipped)
			RunSlice(Config{Workers: 1}, ops, whole)
			if got, want := tables(snap.Analyzers[0], end), tables(skipped, end); got != want {
				t.Errorf("fork differs from a run over its own ops:\n got %s\nwant %s", got, want)
			}
			if got, want := tables(a, end), tables(whole, end); got != want {
				t.Errorf("forked original differs from a never-forked run:\n got %s\nwant %s", got, want)
			}

			// encode → decode → encode is byte-identical, through a
			// resume that spreads the state across shards again; and
			// encoding one state twice is too.
			first := encodePartial(t, tc.name, ops[:cut], nil, tc.mk())
			p, err := ReadPartial(bytes.NewReader(first))
			if err != nil {
				t.Fatal(err)
			}
			lv2 := NewLive(Config{Workers: 2}, tc.mk())
			if err := p.Resume(lv2); err != nil {
				t.Fatal(err)
			}
			lv2.Quiesce()
			for i := 0; i < 2; i++ {
				var again bytes.Buffer
				if err := WritePartial(&again, lv2, tc.name, core.JoinStats{Calls: int64(cut)}, nil); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(again.Bytes(), first) {
					t.Fatalf("encode %d after decode differs from the original encoding (%d vs %d bytes)",
						i+1, again.Len(), len(first))
				}
			}
		})
	}
}
