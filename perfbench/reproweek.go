package main

import (
	"runtime"
	"strings"
	"time"

	"repro"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/pipeline"
	"repro/internal/workload"
)

// reproWeek is what nfsrepro does: generate the CAMPUS and EECS weeks,
// then run every table, figure and side experiment over them.
//
// The EECS week comes from the run's seed. The CAMPUS week always comes
// from DefaultScale's seed: CAMPUS volume swings by a third from seed to
// seed (mailbox sizes are lognormal), and the generator cannot be cut
// to a fixed size the way the monitor's input is, so a seeded CAMPUS
// week would make wall_s measure the seed as much as the code. EECS
// volume varies by under 1% across seeds.
type reproWeek struct {
	// campus and eecs are the last pass's traces, kept for the check.
	campus, eecs *repro.Trace
}

// experiment is one repro call. Calls that read the traces run on the
// sharded pipeline, so their output is checked against a one-worker
// run; the others (ExpNfsiod, ExpReadahead, ExpLoss) build their own
// inputs and are timed but have nothing to compare.
type experiment struct {
	name string
	// run gets the CAMPUS scale, which ExpLoss generates from.
	run        func(campus, eecs *repro.Trace, s repro.Scale) string
	readsTrace bool
}

func both(f func(c, e *repro.Trace) string) func(c, e *repro.Trace, s repro.Scale) string {
	return func(c, e *repro.Trace, _ repro.Scale) string { return f(c, e) }
}

// experiments are nfsrepro's calls in its order, then ExpLoss, which
// nfsrepro runs on request at a scale of at most one day.
var experiments = []experiment{
	{"Table1", both(repro.Table1), true},
	{"Table2", both(repro.Table2), true},
	{"Table3", both(repro.Table3), true},
	{"Table4", both(repro.Table4), true},
	{"Table5", both(repro.Table5), true},
	{"Figure1", both(repro.Figure1), true},
	{"Figure2", both(repro.Figure2), true},
	{"Figure3", both(repro.Figure3), true},
	{"Figure4", both(repro.Figure4), true},
	{"Figure5", both(repro.Figure5), true},
	{"ExpNfsiod", both(func(_, _ *repro.Trace) string { return repro.ExpNfsiod() }), false},
	{"ExpNames", both(func(c, _ *repro.Trace) string { return repro.ExpNames(c) }), true},
	{"ExpReadahead", both(func(_, _ *repro.Trace) string { return repro.ExpReadahead() }), false},
	{"ExpHierarchy", both(func(c, _ *repro.Trace) string { return repro.ExpHierarchy(c) }), true},
	{"ExpNVRAM", both(repro.ExpNVRAM), true},
	{"ExpQuiet", both(repro.ExpQuiet), true},
	{"ExpLoss", func(_, _ *repro.Trace, s repro.Scale) string {
		if s.Days > 1 {
			s.Days = 1
		}
		return repro.ExpLoss(s)
	}, false},
}

func (r *reproWeek) prepare(*bench) error { return nil }

// setup builds the two simulated systems the generators start from:
// server, file system populated with homes and mailboxes, and clients.
// GenerateCampus and GenerateEECS build their own, so wall_s includes
// this work too.
func (r *reproWeek) setup(b *bench) (func(), error) {
	c, e := campusScale(b), b.scale
	sink := &client.SliceSink{}
	workload.NewCampus(workload.DefaultCampusConfig(c.CampusUsers, c.Days, c.Seed), sink)
	workload.NewEECS(workload.DefaultEECSConfig(e.EECSClients, e.Days, e.Seed), sink)
	return func() {}, nil
}

// campusScale is the run's scale with DefaultScale's seed.
func campusScale(b *bench) repro.Scale {
	s := b.scale
	s.Seed = repro.DefaultScale().Seed
	return s
}

// dropLast releases the previous pass's week, so the heap is collected
// before the next pass starts.
func (r *reproWeek) dropLast(bool) { r.campus, r.eecs = nil, nil }

func (r *reproWeek) pass(b *bench, traced bool) (passResult, error) {
	c := campusScale(b)
	layers := map[string]float64{}
	// The heap is collected after each week is generated, so the
	// pass's peak resident set is set by each stage's own allocation,
	// not by where the collector's cycles happen to fall. Without it the
	// peak of one seed ranged over 1.36–1.83 GB from run to run. A
	// traced pass reports the collections' time in untraced_s.
	start := time.Now()
	root := b.tr.begin("repro.pass", 0)
	if traced {
		r.campus = generateTraced(b, root, "CAMPUS", c, layers)
		runtime.GC()
		r.eecs = generateTraced(b, root, "EECS", b.scale, layers)
	} else {
		id := b.tr.begin("repro.GenerateCampus", root)
		r.campus = repro.GenerateCampus(c)
		b.tr.end(id)
		runtime.GC()
		id = b.tr.begin("repro.GenerateEECS", root)
		r.eecs = repro.GenerateEECS(b.scale)
		b.tr.end(id)
	}
	runtime.GC()
	cfg := pipeline.Config{Workers: b.nproc}
	r.campus.Pipeline, r.eecs.Pipeline = cfg, cfg

	var out strings.Builder
	for _, e := range experiments {
		id := b.tr.begin("repro."+e.name, root)
		text := e.run(r.campus, r.eecs, c)
		layers["repro."+e.name+"_s"] = b.tr.end(id).Seconds()
		if e.readsTrace {
			out.WriteString(text)
		}
	}
	wall := time.Since(start)
	b.tr.end(root)

	p := passResult{wall: wall, ops: int64(len(r.campus.Ops) + len(r.eecs.Ops)), output: out.String()}
	if traced {
		layers["untraced_s"] = b.tr.self(root)
		p.layers = layers
	}
	return p, nil
}

// generateTraced is GenerateCampus or GenerateEECS composed from its
// public steps, so generation and the materializing join are timed
// apart. The check compares its tables with the untraced pass's.
func generateTraced(b *bench, root int, name string, s repro.Scale, layers map[string]float64) *repro.Trace {
	gen, window, key := repro.GenerateCampusRecords, 10.0, "workload.campus_s"
	if name == "EECS" {
		gen, window, key = repro.GenerateEECSRecords, 5.0, "workload.eecs_s"
	}
	before := readRuntime()
	id := b.tr.begin(strings.TrimSuffix(key, "_s"), root)
	records := gen(s)
	layers[key] = b.tr.end(id).Seconds()
	layers["workload.alloc_mb"] += readRuntime().sub(before).allocMB()
	layers["workload.records"] += float64(len(records))

	id = b.tr.begin("core.join", root)
	ops, join := core.Join(records)
	layers["core.join_s"] += b.tr.end(id).Seconds()
	layers["core.join_ops"] += float64(len(ops))
	return &repro.Trace{Name: name, Ops: ops, Days: s.Days, Join: join, ReorderWindowMS: window}
}

// reference reruns the trace-reading calls on the last pass's traces
// with one pipeline worker.
func (r *reproWeek) reference(b *bench) (string, error) {
	one := pipeline.Config{Workers: 1}
	r.campus.Pipeline, r.eecs.Pipeline = one, one
	var out strings.Builder
	for _, e := range experiments {
		if e.readsTrace {
			out.WriteString(e.run(r.campus, r.eecs, campusScale(b)))
		}
	}
	return out.String(), nil
}
