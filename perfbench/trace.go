package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/pipeline"
)

// tracer records coarse spans around the public calls a workload makes:
// name, start, end, parent and the run's ID. Spans are kept in memory
// and written once, at the end of a traced run. With tracing off it
// still tracks which spans are open, so a run stopped by its deadline
// can name the layer it was in; nothing else is kept.
type tracer struct {
	on    bool
	run   string
	epoch time.Time

	mu    sync.Mutex
	next  int
	open  map[int]openSpan
	spans []span
}

type openSpan struct {
	name   string
	parent int
	start  time.Time
}

// span is one closed span. Times are seconds since the tracer started;
// Self is the duration minus the part of it the span's children cover.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Run    string  `json:"run"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
}

func newTracer(run string, on bool) *tracer {
	return &tracer{on: on, run: run, epoch: time.Now(), open: map[int]openSpan{}}
}

// begin opens a span under parent (0 for a root) and returns its ID.
func (t *tracer) begin(name string, parent int) int {
	now := time.Now()
	t.mu.Lock()
	t.next++
	id := t.next
	t.open[id] = openSpan{name: name, parent: parent, start: now}
	t.mu.Unlock()
	return id
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	now := time.Now()
	t.mu.Lock()
	defer t.mu.Unlock()
	o := t.open[id]
	delete(t.open, id)
	if t.on {
		t.spans = append(t.spans, span{
			ID: id, Parent: o.parent, Run: t.run, Name: o.name,
			Start: o.start.Sub(t.epoch).Seconds(), End: now.Sub(t.epoch).Seconds(),
		})
	}
	return now.Sub(o.start)
}

// openSpans names the spans still open, oldest first.
func (t *tracer) openSpans() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	list := make([]openSpan, 0, len(t.open))
	for _, o := range t.open {
		list = append(list, o)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].start.Before(list[j].start) })
	names := make([]string, len(list))
	for i, o := range list {
		names[i] = o.name
	}
	if len(names) == 0 {
		names = []string{"(none: between layer calls)"}
	}
	return names
}

// selfTimes fills every recorded span's Self field.
func (t *tracer) selfTimes() {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range t.spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start - covered(children[s.ID])
	}
}

// self returns a closed span's self time.
func (t *tracer) self(id int) float64 {
	t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if s.ID == id {
			return s.Self
		}
	}
	return 0
}

// covered is the length of the union of the spans' intervals; children
// on concurrent goroutines overlap.
func covered(spans []span) float64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	total, end := 0.0, -1.0
	for _, s := range spans {
		switch {
		case s.Start >= end:
			total += s.End - s.Start
			end = s.End
		case s.End > end:
			total += s.End - end
			end = s.End
		}
	}
	return total
}

// dump writes the run's spans and per-layer metrics as JSON and
// returns the file's path.
func (t *tracer) dump(dir, name string, seed int64, m machine, layers map[string]metric) (string, error) {
	t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-%d.json", name, seed))
	data, err := json.MarshalIndent(map[string]any{
		"run":     t.run,
		"machine": m,
		"layers":  layers,
		"spans":   t.spans,
	}, "", " ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, data, 0o644)
}

// recordClock aggregates the per-record calls of one feeding goroutine:
// record decode, the call/reply joiner, the engine's Feed and the
// window ring's Add. Per-record calls are too many for spans; their
// time and counts are summed instead.
type recordClock struct {
	records    int64
	ingestWait time.Duration
	joinSelf   time.Duration
	joinOps    int64
	pendingMax int
	feed       time.Duration
	ringAdd    time.Duration
}

func (c *recordClock) add(o recordClock) {
	c.records += o.records
	c.ingestWait += o.ingestWait
	c.joinSelf += o.joinSelf
	c.joinOps += o.joinOps
	if o.pendingMax > c.pendingMax {
		c.pendingMax = o.pendingMax
	}
	c.feed += o.feed
	c.ringAdd += o.ringAdd
}

// total is the feeding goroutine's time inside the timed calls.
func (c *recordClock) total() time.Duration {
	return c.ingestWait + c.joinSelf + c.feed + c.ringAdd
}

func (c *recordClock) layers(into map[string]float64) {
	into["ingest.records"] += float64(c.records)
	into["ingest.wait_s"] += c.ingestWait.Seconds()
	into["join.self_s"] += c.joinSelf.Seconds()
	into["join.ops"] += float64(c.joinOps)
	if float64(c.pendingMax) > into["join.pending_max"] {
		into["join.pending_max"] = float64(c.pendingMax)
	}
	into["engine.feed_s"] += c.feed.Seconds()
	into["window.add_s"] += c.ringAdd.Seconds()
}

// timedSource times a pull joiner's record source, so the joiner's
// self time is its Next time minus the decode wait inside it. It
// forwards Recycle, so the joiner pools records exactly as it does on
// the bare source.
type timedSource struct {
	src  *pipeline.TraceSet
	wait time.Duration
	n    int64
}

func (s *timedSource) Next() (*core.Record, error) {
	start := time.Now()
	r, err := s.src.Next()
	s.wait += time.Since(start)
	if err == nil {
		s.n++
	}
	return r, err
}

func (s *timedSource) Recycle(r *core.Record) { s.src.Recycle(r) }

// layerDefs lists every per-layer metric with its unit, in the order
// they are documented. A workload that does not exercise a layer
// reports its metrics as 0.
func layerDefs() []metricDef {
	defs := []metricDef{
		{"workload.campus_s", "s"}, {"workload.eecs_s", "s"},
		{"workload.records", "count"}, {"workload.alloc_mb", "MB"},
		{"core.join_s", "s"}, {"core.join_ops", "count"},
	}
	for _, e := range experiments {
		defs = append(defs, metricDef{"repro." + e.name + "_s", "s"})
	}
	return append(defs, []metricDef{
		{"ingest.records", "count"}, {"ingest.mb", "MB"}, {"ingest.wait_s", "s"},
		{"join.self_s", "s"}, {"join.ops", "count"}, {"join.pending_max", "count"},
		{"engine.feed_s", "s"}, {"engine.finish_s", "s"}, {"window.add_s", "s"},
		{"snap.count", "count"}, {"snap.fork_p50_ms", "ms"}, {"snap.fork_max_ms", "ms"},
		{"snap.finish_p50_ms", "ms"},
		{"partial.encode_s", "s"}, {"partial.decode_s", "s"}, {"partial.resume_s", "s"},
		{"partial.merge_s", "s"}, {"partial.mb", "MB"},
		{"jobspec.runs.map_s", "s"}, {"jobspec.blocklife.map_s", "s"}, {"jobspec.render_s", "s"},
		{"runtime.alloc_mb", "MB"}, {"runtime.gc_cycles", "count"}, {"runtime.gc_pause_ms", "ms"},
		{"trace.overhead_frac", "ratio"}, {"untraced_s", "s"},
	}...)
}

type metricDef struct{ name, unit string }

// perLayerMetrics combines a traced run: layer values are medians over
// the traced passes; the runtime counts come from the untraced passes,
// which tracing does not disturb; the overhead compares the two.
func perLayerMetrics(plain, traced []passResult) map[string]metric {
	out := map[string]metric{}
	for _, d := range layerDefs() {
		vals := make([]float64, len(traced))
		for i, p := range traced {
			vals[i] = p.layers[d.name]
		}
		out[d.name] = metric{median(vals), d.unit}
	}
	var allocs, cycles, pauses, plainWalls, tracedWalls []float64
	for _, p := range plain {
		allocs = append(allocs, p.rt.allocMB())
		cycles = append(cycles, float64(p.rt.gcCycles))
		pauses = append(pauses, p.rt.gcPause*1e3)
		plainWalls = append(plainWalls, p.wall.Seconds())
	}
	for _, p := range traced {
		tracedWalls = append(tracedWalls, p.wall.Seconds())
	}
	out["runtime.alloc_mb"] = metric{median(allocs), "MB"}
	out["runtime.gc_cycles"] = metric{median(cycles), "count"}
	out["runtime.gc_pause_ms"] = metric{median(pauses), "ms"}
	out["trace.overhead_frac"] = metric{median(tracedWalls)/median(plainWalls) - 1, "ratio"}
	return out
}
