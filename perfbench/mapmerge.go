package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/jobspec"
	"repro/internal/pipeline"
)

// mapMerge is what nfsanalyze -coordinator workers and the merge do,
// minus process spawn: the EECS week as seven binary pieces, each
// mapped in-process with jobspec.RunFiles, nproc at a time, for runs
// (independent states, merged); for blocklife, which is
// order-dependent, the pieces run as a resume chain. Each analysis
// then reads the states back, merges and renders.
type mapMerge struct {
	paths []string
	bytes int64
	// states holds the untraced pass's state bytes per kind and piece;
	// a traced pass, which composes RunFiles' steps, must match them.
	states map[string][][]byte
	// probes counts set-up probes, which cycle through the assignments.
	probes int
}

// mapKinds are the two analyses mapped: one merged, one chained.
var mapKinds = []string{"runs", "blocklife"}

func (m *mapMerge) prepare(b *bench) error {
	dir := b.inputDir()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := b.generateChild("eecs-bin", dir); err != nil {
		return err
	}
	for i := 0; i < eecsPieces; i++ {
		fi, err := os.Stat(piecePath(dir, i))
		if err != nil {
			return err
		}
		m.paths = append(m.paths, piecePath(dir, i))
		m.bytes += fi.Size()
	}
	return nil
}

// setup builds what RunFiles builds for one assignment before its
// first record: the analyzer set, the opened piece with its decoders,
// and the engine. Successive probes take the assignments in turn.
func (m *mapMerge) setup(b *bench) (func(), error) {
	kind := mapKinds[m.probes%len(mapKinds)]
	path := m.paths[m.probes/len(mapKinds)%len(m.paths)]
	m.probes++
	set, err := jobspec.Build(jobspec.Default(kind))
	if err != nil {
		return nil, err
	}
	ts, err := pipeline.OpenTraceSet([]string{path}, core.IngestConfig{Decoders: b.nproc})
	if err != nil {
		return nil, err
	}
	lv := pipeline.NewLive(pipeline.Config{Workers: 1}, set.Analyzers...)
	return func() { lv.Abort(); ts.Close() }, nil
}

// dropLast releases the previous pass's states before an untraced
// pass, so they do not count in its peak resident set. A traced pass
// needs them for its check.
func (m *mapMerge) dropLast(traced bool) {
	if !traced {
		m.states = nil
	}
}

// pieceMapper maps one piece to its state bytes.
type pieceMapper func(ctx context.Context, spec jobspec.Spec, path string, parent *pipeline.Partial, span int) ([]byte, error)

func (m *mapMerge) pass(b *bench, traced bool) (passResult, error) {
	mapPiece := func(ctx context.Context, spec jobspec.Spec, path string, parent *pipeline.Partial, span int) ([]byte, error) {
		return jobspec.RunFiles(ctx, spec, []string{path}, b.nproc, parent)
	}
	var clk recordClock
	layers := map[string]float64{}
	if traced {
		var mu sync.Mutex
		mapPiece = func(ctx context.Context, spec jobspec.Spec, path string, parent *pipeline.Partial, span int) ([]byte, error) {
			var c recordClock
			state, err := runFilesTraced(ctx, b, spec, path, parent, span, &c, layers, &mu)
			mu.Lock()
			clk.add(c)
			mu.Unlock()
			return state, err
		}
	}

	start := time.Now()
	root := b.tr.begin("mapmerge.pass", 0)
	var out strings.Builder
	var ops int64 // every op passes through each analysis once
	states := map[string][][]byte{}
	for _, kind := range mapKinds {
		spec := jobspec.Default(kind)
		set, err := jobspec.Build(spec)
		if err != nil {
			b.tr.end(root)
			return passResult{}, err
		}
		id := b.tr.begin("jobspec."+kind+".map", root)
		var pieces [][]byte
		if set.Sequential() {
			pieces, err = m.chain(b, spec, mapPiece, id, layers)
		} else {
			pieces, err = m.fanOut(b, spec, mapPiece, id)
		}
		layers["jobspec."+kind+".map_s"] = b.tr.end(id).Seconds()
		if err != nil {
			b.tr.end(root)
			return passResult{}, fmt.Errorf("%s: %w", kind, err)
		}
		states[kind] = pieces

		partials := make([]*pipeline.Partial, len(pieces))
		id = b.tr.begin("partial.decode", root)
		for i, state := range pieces {
			if partials[i], err = pipeline.ReadPartial(bytes.NewReader(state)); err != nil {
				break
			}
		}
		layers["partial.decode_s"] += b.tr.end(id).Seconds()
		if err != nil {
			b.tr.end(root)
			return passResult{}, fmt.Errorf("%s: reading state: %w", kind, err)
		}
		id = b.tr.begin("partial.merge", root)
		stats, join, err := pipeline.MergePartials(set.Analyzers, partials)
		layers["partial.merge_s"] += b.tr.end(id).Seconds()
		if err != nil {
			b.tr.end(root)
			return passResult{}, fmt.Errorf("%s: %w", kind, err)
		}
		ops += stats.Ops
		id = b.tr.begin("jobspec.render", root)
		fmt.Fprintf(&out, "== %s ==\n", kind)
		set.Render(&out, stats, join)
		layers["jobspec.render_s"] += b.tr.end(id).Seconds()
		for _, s := range pieces {
			layers["partial.mb"] += float64(len(s)) / (1 << 20)
		}
	}
	wall := time.Since(start)
	b.tr.end(root)

	p := passResult{wall: wall, ops: ops, output: out.String()}
	if !traced {
		m.states = states
	} else {
		p.mismatch = m.compareStates(b, states)
		clk.layers(layers)
		layers["ingest.mb"] = float64(len(mapKinds)) * float64(m.bytes) / (1 << 20)
		layers["untraced_s"] = b.tr.self(root)
		p.layers = layers
	}
	return p, nil
}

// fanOut maps every piece independently, nproc at a time.
func (m *mapMerge) fanOut(b *bench, spec jobspec.Spec, mapPiece pieceMapper, parent int) ([][]byte, error) {
	states := make([][]byte, len(m.paths))
	errs := make([]error, len(m.paths))
	sem := make(chan struct{}, b.nproc)
	var wg sync.WaitGroup
	for i, path := range m.paths {
		i, path := i, path
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			id := b.tr.begin(fmt.Sprintf("piece.%d", i), parent)
			states[i], errs[i] = mapPiece(b.ctx, spec, path, nil, id)
			b.tr.end(id)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("piece %d: %w", i, err)
		}
	}
	return states, nil
}

// chain maps the pieces in order, each resuming from the previous
// piece's state.
func (m *mapMerge) chain(b *bench, spec jobspec.Spec, mapPiece pieceMapper, parent int, layers map[string]float64) ([][]byte, error) {
	states := make([][]byte, 0, len(m.paths))
	var prev *pipeline.Partial
	for i, path := range m.paths {
		id := b.tr.begin(fmt.Sprintf("piece.%d", i), parent)
		state, err := mapPiece(b.ctx, spec, path, prev, id)
		if err == nil {
			d := b.tr.begin("partial.decode", id)
			prev, err = pipeline.ReadPartial(bytes.NewReader(state))
			layers["partial.decode_s"] += b.tr.end(d).Seconds()
		}
		b.tr.end(id)
		if err != nil {
			return nil, fmt.Errorf("piece %d: %w", i, err)
		}
		states = append(states, state)
	}
	return states, nil
}

// runFilesTraced is jobspec.RunFiles composed from its public steps, so
// decode, join, feed, quiesce, resume and encode are timed apart. The
// state bytes it returns must equal RunFiles'.
func runFilesTraced(ctx context.Context, b *bench, spec jobspec.Spec, path string, parent *pipeline.Partial,
	span int, clk *recordClock, layers map[string]float64, mu *sync.Mutex) ([]byte, error) {
	set, err := jobspec.Build(spec)
	if err != nil {
		return nil, err
	}
	ts, err := pipeline.OpenTraceSet([]string{path}, core.IngestConfig{Decoders: b.nproc})
	if err != nil {
		return nil, err
	}
	defer ts.Close()
	lv := pipeline.NewLive(pipeline.Config{Workers: 1}, set.Analyzers...)
	if parent != nil {
		id := b.tr.begin("partial.resume", span)
		err := parent.Resume(lv)
		d := b.tr.end(id)
		mu.Lock()
		layers["partial.resume_s"] += d.Seconds()
		mu.Unlock()
		if err != nil {
			lv.Abort()
			return nil, err
		}
	}
	src := &timedSource{src: ts}
	j := pipeline.NewJoiner(src)
	const cancelCheckEvery = 4096 // as RunFiles
	var join, feed time.Duration
	n := 0
	for {
		t0 := time.Now()
		op, err := j.Next()
		t1 := time.Now()
		join += t1.Sub(t0)
		if err == io.EOF {
			break
		}
		if err != nil {
			lv.Abort()
			return nil, err
		}
		if p := j.Pending(); p > clk.pendingMax {
			clk.pendingMax = p
		}
		lv.Feed(op)
		feed += time.Since(t1)
		clk.joinOps++
		if n++; n%cancelCheckEvery == 0 && ctx.Err() != nil {
			lv.Abort()
			return nil, ctx.Err()
		}
	}
	clk.records, clk.ingestWait = src.n, src.wait
	clk.joinSelf, clk.feed = join-src.wait, feed
	js := j.Stats()
	if parent != nil {
		total := parent.Join
		total.Merge(js)
		js = total
	}
	id := b.tr.begin("engine.quiesce", span)
	stats := lv.Quiesce()
	quiesce := b.tr.end(id)
	if stats.Ops == 0 {
		return nil, fmt.Errorf("no operations in %s", path)
	}
	var buf bytes.Buffer
	id = b.tr.begin("partial.encode", span)
	err = pipeline.WritePartial(&buf, lv, spec.Kind, js, parent)
	encode := b.tr.end(id)
	mu.Lock()
	layers["engine.finish_s"] += quiesce.Seconds()
	layers["partial.encode_s"] += encode.Seconds()
	mu.Unlock()
	return buf.Bytes(), err
}

// compareStates reports how the traced pass's states differ from the
// untraced pass's RunFiles states, or "" when they hold the same
// reduction. State bytes are not reproducible from run to run (the
// encoders walk Go maps), so each state is compared by its metadata and
// by the tables it renders on its own.
func (m *mapMerge) compareStates(b *bench, got map[string][][]byte) string {
	for _, kind := range mapKinds {
		for i := range got[kind] {
			traced, err1 := renderState(kind, got[kind][i])
			plain, err2 := renderState(kind, m.states[kind][i])
			switch {
			case err1 != nil || err2 != nil:
				return fmt.Sprintf("%s piece %d: reading states: %v %v", kind, i, err1, err2)
			case traced != plain:
				return fmt.Sprintf("%s piece %d: traced state differs from RunFiles' state: %s", kind, i, firstDiff(traced, plain))
			}
		}
	}
	return ""
}

// renderState resumes a fresh engine from one state, finishes it and
// renders the tables with the state's metadata.
func renderState(kind string, state []byte) (string, error) {
	p, err := pipeline.ReadPartial(bytes.NewReader(state))
	if err != nil {
		return "", err
	}
	set, err := jobspec.Build(jobspec.Default(kind))
	if err != nil {
		return "", err
	}
	lv := pipeline.NewLive(pipeline.Config{Workers: 1}, set.Analyzers...)
	if err := p.Resume(lv); err != nil {
		lv.Abort()
		return "", err
	}
	stats := lv.Finish()
	var out strings.Builder
	fmt.Fprintf(&out, "%s stats=%+v join=%+v parent=%t\n", p.Label, p.Stats, p.Join, len(p.ParentDigest) > 0)
	set.Render(&out, stats, p.Join)
	return out.String(), nil
}

// reference runs each analysis as one single-process pass over all
// seven pieces, rendered the same way.
func (m *mapMerge) reference(b *bench) (string, error) {
	var out strings.Builder
	for _, kind := range mapKinds {
		set, err := jobspec.Build(jobspec.Default(kind))
		if err != nil {
			return "", err
		}
		ts, err := pipeline.OpenTraceSet(m.paths, core.IngestConfig{Decoders: b.nproc})
		if err != nil {
			return "", err
		}
		j := pipeline.NewJoiner(ts)
		stats, err := pipeline.Run(pipeline.Config{Workers: b.nproc}, j, set.Analyzers...)
		ts.Close()
		if err != nil {
			return "", err
		}
		fmt.Fprintf(&out, "== %s ==\n", kind)
		set.Render(&out, stats, j.Stats())
	}
	return out.String(), nil
}
