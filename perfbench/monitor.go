package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/window"
	"repro/internal/workload"
)

// monitor replays the first monitorRecords CAMPUS records, one text
// trace file, through the calls nfsmond makes for a static file: serial text decode, the push
// joiner, the live engine and the window ring, with nfsmond's default
// analyses (summary, hierarchy) and window settings. Every reportEvery
// records it takes a report the way nfsmond serves one: fork, feed the
// joiner's pending operations to the fork, finish it, render.
type monitor struct {
	path string
	size int64
}

// reportEvery spaces the reports so a pass takes 1,100 of them, enough
// for p99 report latency to have ten samples beyond it.
const reportEvery = monitorRecords / 1100

func (m *monitor) prepare(b *bench) error {
	if err := os.MkdirAll(b.inputDir(), 0o755); err != nil {
		return err
	}
	m.path = filepath.Join(b.inputDir(), "campus.trace")
	if err := b.generateChild("campus-text", m.path); err != nil {
		return err
	}
	fi, err := os.Stat(m.path)
	if err != nil {
		return err
	}
	m.size = fi.Size()
	return nil
}

// monitorState is what nfsmond builds before its first record.
type monitorState struct {
	f    *os.File
	r    *core.Reader
	j    *pipeline.Joiner
	lv   *pipeline.Live
	ring *window.Ring
}

func (m *monitor) open(b *bench) (*monitorState, error) {
	f, err := os.Open(m.path)
	if err != nil {
		return nil, err
	}
	return &monitorState{
		f:    f,
		r:    core.NewReader(f),
		j:    pipeline.NewPushJoiner(),
		lv:   pipeline.NewLive(pipeline.Config{Workers: b.nproc}, monitorAnalyzers()...),
		ring: window.NewRing(60, 60), // nfsmond's -window and -keep defaults
	}, nil
}

func (s *monitorState) close() {
	s.lv.Abort()
	s.f.Close()
}

// monitorAnalyzers are nfsmond's default -analyses.
func monitorAnalyzers() []pipeline.Analyzer {
	return []pipeline.Analyzer{&pipeline.SummaryAnalyzer{}, &pipeline.HierarchyAnalyzer{Warmup: 600}}
}

func (m *monitor) setup(b *bench) (func(), error) {
	s, err := m.open(b)
	if err != nil {
		return nil, err
	}
	return s.close, nil
}

func (m *monitor) pass(b *bench, traced bool) (passResult, error) {
	s, err := m.open(b)
	if err != nil {
		return passResult{}, err
	}
	defer s.f.Close()

	var (
		clk      recordClock
		buf      []*core.Op
		lat      []time.Duration
		forks    []float64
		finishes []float64
		ops      int64
		out      string
	)
	feed := func(op *core.Op) {
		ops++
		if !traced {
			s.lv.Feed(op)
			s.ring.Add(op)
			return
		}
		t0 := time.Now()
		s.lv.Feed(op)
		t1 := time.Now()
		s.ring.Add(op)
		clk.feed += t1.Sub(t0)
		clk.ringAdd += time.Since(t1)
	}
	report := func(root int, drained bool) error {
		start := time.Now()
		id := b.tr.begin("monitor.report", root)
		text, fork, finish, err := m.report(b, s, id, drained)
		b.tr.end(id)
		if err != nil {
			return err
		}
		lat = append(lat, time.Since(start))
		forks, finishes = append(forks, fork), append(finishes, finish)
		out = text
		return nil
	}

	start := time.Now()
	root := b.tr.begin("monitor.pass", 0)
	var records int64
	for {
		var rec *core.Record
		if traced {
			t0 := time.Now()
			rec, err = s.r.Next()
			t1 := time.Now()
			if err == nil {
				buf = s.j.Push(rec, buf[:0])
				clk.joinSelf += time.Since(t1)
				if p := s.j.Pending(); p > clk.pendingMax {
					clk.pendingMax = p
				}
			}
			clk.ingestWait += t1.Sub(t0)
		} else if rec, err = s.r.Next(); err == nil {
			buf = s.j.Push(rec, buf[:0])
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			s.lv.Abort()
			b.tr.end(root)
			return passResult{}, err
		}
		records++
		for _, op := range buf {
			feed(op)
		}
		if records%reportEvery == 0 {
			if err := report(root, false); err != nil {
				s.lv.Abort()
				b.tr.end(root)
				return passResult{}, err
			}
		}
	}
	t0 := time.Now()
	buf = s.j.Drain(buf[:0])
	clk.joinSelf += time.Since(t0)
	for _, op := range buf {
		feed(op)
	}
	if err := report(root, true); err != nil {
		s.lv.Abort()
		b.tr.end(root)
		return passResult{}, err
	}
	fin := b.tr.begin("engine.finish", root)
	s.lv.Finish()
	finishDur := b.tr.end(fin)
	wall := time.Since(start)
	b.tr.end(root)

	p := passResult{wall: wall, ops: ops, output: out, latencies: lat}
	if traced {
		clk.records, clk.joinOps = records, ops
		p.layers = map[string]float64{}
		clk.layers(p.layers)
		p.layers["ingest.mb"] = float64(m.size) / (1 << 20)
		p.layers["engine.finish_s"] = finishDur.Seconds()
		p.layers["snap.count"] = float64(len(forks))
		sort.Float64s(forks)
		sort.Float64s(finishes)
		p.layers["snap.fork_p50_ms"] = quantile(forks, 0.5) * 1e3
		p.layers["snap.fork_max_ms"] = forks[len(forks)-1] * 1e3
		p.layers["snap.finish_p50_ms"] = quantile(finishes, 0.5) * 1e3
		// The report and finish spans are the root's children; the
		// per-record calls are timed in aggregate.
		p.layers["untraced_s"] = b.tr.self(root) - clk.total().Seconds()
	}
	return p, nil
}

// report takes one nfsmond report: fork the engine, feed the fork the
// joiner's pending operations (non-destructively), finish the fork and
// render its tables. It returns the text and the fork and finish
// durations in seconds.
func (m *monitor) report(b *bench, s *monitorState, parent int, drained bool) (string, float64, float64, error) {
	id := b.tr.begin("snap.fork", parent)
	snap, err := s.lv.Fork()
	fork := b.tr.end(id)
	if err != nil {
		return "", 0, 0, err
	}
	id = b.tr.begin("snap.pending", parent)
	var join core.JoinStats
	if drained {
		join = s.j.Stats()
	} else {
		for _, op := range s.j.PendingOps() {
			snap.Feed(op)
		}
		join = s.j.StatsIfDrained()
	}
	b.tr.end(id)
	id = b.tr.begin("snap.finish", parent)
	stats := snap.Finish()
	finish := b.tr.end(id)
	id = b.tr.begin("snap.render", parent)
	text := renderMonitor(snap.Analyzers, stats, join)
	b.tr.end(id)
	return text, fork.Seconds(), finish.Seconds(), nil
}

// renderMonitor renders nfsmond's tables: the summary (with days from
// the stream's span, as nfsmond computes them), hierarchy coverage, and
// the join statistics.
func renderMonitor(analyzers []pipeline.Analyzer, stats pipeline.Stats, join core.JoinStats) string {
	var b strings.Builder
	for _, a := range analyzers {
		switch a := a.(type) {
		case *pipeline.SummaryAnalyzer:
			days := stats.Span() / workload.Day
			if days <= 0 {
				days = 1.0 / 24
			}
			a.Result.Days = days
			fmt.Fprintln(&b, a.Result)
		case *pipeline.HierarchyAnalyzer:
			fmt.Fprintf(&b, "hierarchy coverage after 10min warmup: %.2f%%\n", 100*a.Coverage)
		}
	}
	fmt.Fprintf(&b, "ops=%d span=%.3fs\n", stats.Ops, stats.Span())
	fmt.Fprintf(&b, "join: %d calls, %d replies, %d matched, %d unmatched calls, %d orphan replies\n",
		join.Calls, join.Replies, join.Matched, join.UnmatchedCalls, join.OrphanReplies)
	return b.String()
}

// reference is one batch pipeline.Run over the same file: the final
// report must equal it.
func (m *monitor) reference(b *bench) (string, error) {
	f, err := os.Open(m.path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	j := pipeline.NewJoiner(core.NewReader(f))
	analyzers := monitorAnalyzers()
	stats, err := pipeline.Run(pipeline.Config{Workers: b.nproc}, j, analyzers...)
	if err != nil {
		return "", err
	}
	return renderMonitor(analyzers, stats, j.Stats()), nil
}
