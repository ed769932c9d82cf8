package pipeline

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// plainAnalyzer implements Analyzer but not ForkableAnalyzer.
type plainAnalyzer struct{}

// countAcc counts the ops routed to one shard.
type countAcc struct{ n int64 }

func (c *countAcc) Add(*core.Op) { c.n++ }

func (a *plainAnalyzer) Open(shards int) []Accumulator {
	accs := make([]Accumulator, shards)
	for i := range accs {
		accs[i] = &countAcc{}
	}
	return accs
}
func (a *plainAnalyzer) Close() {}

func TestForkRequiresForkableAnalyzers(t *testing.T) {
	lv := NewLive(Config{Workers: 2}, &SummaryAnalyzer{}, &plainAnalyzer{})
	defer lv.Abort()
	_, err := lv.Fork()
	if err == nil || !strings.Contains(err.Error(), "does not support Fork") {
		t.Fatalf("Fork with non-forkable analyzer: err = %v", err)
	}
}

func TestForkAfterFinishErrors(t *testing.T) {
	lv := NewLive(Config{Workers: 1}, &SummaryAnalyzer{})
	lv.Finish()
	if _, err := lv.Fork(); err == nil {
		t.Fatal("Fork after Finish should error")
	}
}

// TestSnapshotIsolation checks both directions of independence: ops fed
// to the live engine after the fork don't leak into the snapshot, and
// ops fed to the snapshot continuation don't leak into the live run.
func TestSnapshotIsolation(t *testing.T) {
	ops := genOps(t, 0.5)
	if len(ops) < 100 {
		t.Fatalf("only %d ops", len(ops))
	}
	half := len(ops) / 2

	sum := &SummaryAnalyzer{}
	lv := NewLive(Config{Workers: 4}, sum)
	for _, op := range ops[:half] {
		lv.Feed(op)
	}
	snap, err := lv.Fork()
	if err != nil {
		t.Fatal(err)
	}

	// Diverge: the live run sees the rest, the snapshot sees nothing.
	for _, op := range ops[half:] {
		lv.Feed(op)
	}
	snapStats := snap.Finish()
	liveStats := lv.Finish()

	if snapStats.Ops != int64(half) {
		t.Errorf("snapshot ops = %d, want %d", snapStats.Ops, half)
	}
	if liveStats.Ops != int64(len(ops)) {
		t.Errorf("live ops = %d, want %d", liveStats.Ops, len(ops))
	}
	fork := snap.Analyzers[0].(*SummaryAnalyzer)
	if fork.Result.TotalOps != int64(half) {
		t.Errorf("snapshot summary counted %d ops, want %d", fork.Result.TotalOps, half)
	}
	if sum.Result.TotalOps != int64(len(ops)) {
		t.Errorf("live summary counted %d ops, want %d", sum.Result.TotalOps, len(ops))
	}
}

// TestSnapshotContinuation feeds the second half of the stream to the
// snapshot instead, which must then equal a full sequential run.
func TestSnapshotContinuation(t *testing.T) {
	ops := genOps(t, 0.5)
	half := len(ops) / 2

	sum := &SummaryAnalyzer{}
	lv := NewLive(Config{Workers: 3}, sum)
	for _, op := range ops[:half] {
		lv.Feed(op)
	}
	snap, err := lv.Fork()
	if err != nil {
		t.Fatal(err)
	}
	lv.Abort()
	for _, op := range ops[half:] {
		snap.Feed(op)
	}
	stats := snap.Finish()
	if stats.Ops != int64(len(ops)) {
		t.Fatalf("continuation ops = %d, want %d", stats.Ops, len(ops))
	}
	fork := snap.Analyzers[0].(*SummaryAnalyzer)

	want := &SummaryAnalyzer{}
	RunSlice(Config{Workers: 1}, ops, want)
	if fork.Result.TotalOps != want.Result.TotalOps ||
		fork.Result.BytesRead != want.Result.BytesRead ||
		fork.Result.BytesWritten != want.Result.BytesWritten ||
		fork.Result.ProcCounts != want.Result.ProcCounts {
		t.Errorf("continuation result diverged:\ngot  %+v\nwant %+v", fork.Result, want.Result)
	}
}

// TestRepeatedForks takes several forks from one live run; each must
// reflect exactly the prefix fed before it.
func TestRepeatedForks(t *testing.T) {
	ops := genOps(t, 0.5)
	lv := NewLive(Config{Workers: 2}, &SummaryAnalyzer{})
	step := len(ops) / 4
	var fed int
	for cut := step; cut <= 3*step; cut += step {
		for _, op := range ops[fed:cut] {
			lv.Feed(op)
		}
		fed = cut
		snap, err := lv.Fork()
		if err != nil {
			t.Fatal(err)
		}
		snap.Finish()
		got := snap.Analyzers[0].(*SummaryAnalyzer).Result.TotalOps
		if got != int64(cut) {
			t.Fatalf("fork at %d ops reported %d", cut, got)
		}
	}
	lv.Abort()
}
