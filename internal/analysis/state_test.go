package analysis

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/state"
	"repro/internal/stats"
)

// This file pins the codec contract of state.go from inside the
// package: for every reducer, DecodeState over an encoded partial
// rebuilds exactly the state the feeds produced, a resumed run tracks
// the original op for op, and the validation paths reject mismatched
// configurations with the decoder's sticky error rather than folding
// garbage. The cross-process and merge grids live in
// internal/pipeline; these tests own the per-reducer symmetry.

// stateHandle adapts one reducer to the shared round-trip harness,
// reusing the clone_test fingerprints so "equal" means the same thing
// in both files.
type stateHandle struct {
	feed func(*core.Op)
	enc  func(*state.Encoder)
	dec  func(*state.Decoder)
	fp   func() string
}

// stateOps extends the clone stream with a read hours later, so the
// open hourly series actually grows past its first bucket.
func stateOps() []*core.Op {
	ops := cloneOps()
	ops = append(ops, &core.Op{T: 7205, Replied: true, Proc: core.MustProc("read"),
		Client: 1, FH: core.InternFH("f1"), Offset: 0, Count: 4096, RCount: 4096})
	return ops
}

func encodeSection(t *testing.T, enc func(*state.Encoder)) []byte {
	t.Helper()
	e := state.NewEncoder()
	e.Section("x")
	enc(e)
	var buf bytes.Buffer
	if err := e.Flush(&buf); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	return buf.Bytes()
}

func decodeSection(t *testing.T, blob []byte, dec func(*state.Decoder)) error {
	t.Helper()
	f, err := state.ReadFile(bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	d, ok := f.Section("x")
	if !ok {
		t.Fatalf("section missing from encoded file")
	}
	dec(d)
	if err := d.Err(); err != nil {
		return err
	}
	return d.Finish()
}

func stateCases() []struct {
	name string
	mk   func() stateHandle
} {
	return []struct {
		name string
		mk   func() stateHandle
	}{
		{"summary", func() stateHandle {
			s := NewSummary(1)
			return stateHandle{s.Add, s.EncodeState, s.DecodeState, summaryCloneable(s).fp}
		}},
		{"hourly-open", func() stateHandle {
			h := NewHourlyOpen()
			return stateHandle{h.Add, h.EncodeState, h.DecodeState, hourlyCloneable(h).fp}
		}},
		{"hourly-fixed", func() stateHandle {
			h := NewHourly(8000)
			return stateHandle{h.Add, h.EncodeState, h.DecodeState, hourlyCloneable(h).fp}
		}},
		{"accessmap", func() stateHandle {
			m := make(AccessMap)
			return stateHandle{m.Add, m.EncodeState, m.DecodeState, accessMapCloneable(m).fp}
		}},
		{"blocklife", func() stateHandle {
			s := NewBlockLifeStream(0, 50, 50)
			return stateHandle{s.Add, s.EncodeState, s.DecodeState, blockLifeCloneable(s).fp}
		}},
		{"peakhour", func() stateHandle {
			p := NewPeakHourInstances(0, 100)
			return stateHandle{p.Add, p.EncodeState, p.DecodeState, peakHourCloneable(p).fp}
		}},
		{"mailbox", func() stateHandle {
			m := NewMailboxShare()
			return stateHandle{m.Add, m.EncodeState, m.DecodeState, mailboxCloneable(m).fp}
		}},
		{"hierarchy", func() stateHandle {
			h := NewHierarchy(10)
			return stateHandle{h.Add, h.EncodeState, h.DecodeState, hierarchyCloneable(h).fp}
		}},
		{"names", func() stateHandle {
			n := NewNamesStream()
			return stateHandle{n.Add, n.EncodeState, n.DecodeState, namesCloneable(n).fp}
		}},
	}
}

func TestStateRoundTrip(t *testing.T) {
	ops := stateOps()
	cut := len(ops) * 2 / 3
	for _, tc := range stateCases() {
		t.Run(tc.name, func(t *testing.T) {
			// Encode a mid-stream checkpoint; decoding into a fresh
			// instance must reproduce it exactly.
			orig := tc.mk()
			for _, op := range ops[:cut] {
				orig.feed(op)
			}
			blob := encodeSection(t, orig.enc)
			resumed := tc.mk()
			if err := decodeSection(t, blob, resumed.dec); err != nil {
				t.Fatalf("decode: %v", err)
			}
			if resumed.fp() != orig.fp() {
				t.Fatalf("decoded state differs from encoded:\n--- decoded ---\n%s\n--- original ---\n%s",
					resumed.fp(), orig.fp())
			}

			// Both continue over the suffix: the resumed run must track
			// the original, and both must equal a never-checkpointed run.
			for _, op := range ops[cut:] {
				orig.feed(op)
				resumed.feed(op)
			}
			if resumed.fp() != orig.fp() {
				t.Fatalf("resumed run diverged after checkpoint:\n--- resumed ---\n%s\n--- original ---\n%s",
					resumed.fp(), orig.fp())
			}
			fresh := tc.mk()
			for _, op := range ops {
				fresh.feed(op)
			}
			if resumed.fp() != fresh.fp() {
				t.Fatalf("resumed run differs from uninterrupted run:\n--- resumed ---\n%s\n--- fresh ---\n%s",
					resumed.fp(), fresh.fp())
			}
		})
	}
}

// TestStateDecodeFoldsLikeMerge pins the fold semantics: decoding two
// halves' states into one fresh instance equals one full run, for the
// reducers whose partials compose by decode order.
func TestStateDecodeFoldsLikeMerge(t *testing.T) {
	ops := stateOps()
	cut := len(ops) / 2
	for _, tc := range stateCases() {
		if tc.name == "blocklife" || tc.name == "hierarchy" || tc.name == "names" {
			// Order-dependent reducers compose only as resume chains
			// (TestStateRoundTrip); independent halves are not defined.
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			first := tc.mk()
			for _, op := range ops[:cut] {
				first.feed(op)
			}
			second := tc.mk()
			for _, op := range ops[cut:] {
				second.feed(op)
			}
			folded := tc.mk()
			if err := decodeSection(t, encodeSection(t, first.enc), folded.dec); err != nil {
				t.Fatalf("decode first half: %v", err)
			}
			if err := decodeSection(t, encodeSection(t, second.enc), folded.dec); err != nil {
				t.Fatalf("decode second half: %v", err)
			}
			full := tc.mk()
			for _, op := range ops {
				full.feed(op)
			}
			if folded.fp() != full.fp() {
				t.Fatalf("two decoded halves differ from one full run:\n--- folded ---\n%s\n--- full ---\n%s",
					folded.fp(), full.fp())
			}
		})
	}
}

// shardedReducer is the part of the reducer contract that splits and
// recombines state across shards.
type shardedReducer[R any] interface {
	Add(*core.Op)
	Merge(R)
	DistributeState([]R, func(core.FH) int)
}

// distributeRebuilds checks that a reducer spread across two shards
// with DistributeState and merged back with Merge equals the original.
func distributeRebuilds[R shardedReducer[R]](t *testing.T, mk func() R, fp func(R) string) {
	t.Helper()
	whole := mk()
	for _, op := range stateOps() {
		whole.Add(op)
	}
	want := fp(whole)
	parts := []R{mk(), mk()}
	whole.DistributeState(parts, func(fh core.FH) int { return int(fh) % 2 })
	rebuilt := mk()
	for _, p := range parts {
		rebuilt.Merge(p)
	}
	if got := fp(rebuilt); got != want {
		t.Fatalf("distributed state does not rebuild the whole:\n--- rebuilt ---\n%s\n--- whole ---\n%s", got, want)
	}
}

// TestStateDistributeRebuildsWhole pins the decode-side sharding: a
// decoded partial spread across shard-local accumulators and merged
// back equals the original.
func TestStateDistributeRebuildsWhole(t *testing.T) {
	t.Run("summary", func(t *testing.T) {
		distributeRebuilds(t, func() *Summary { return NewSummary(1) },
			func(s *Summary) string { return summaryCloneable(s).fp() })
	})
	t.Run("hourly", func(t *testing.T) {
		distributeRebuilds(t, NewHourlyOpen, func(h *HourlySeries) string { return hourlyCloneable(h).fp() })
	})
	t.Run("accessmap", func(t *testing.T) {
		distributeRebuilds(t, func() AccessMap { return make(AccessMap) },
			func(m AccessMap) string { return accessMapCloneable(m).fp() })
	})
	t.Run("blocklife", func(t *testing.T) {
		distributeRebuilds(t, func() *BlockLifeStream { return NewBlockLifeStream(0, 50, 50) },
			func(s *BlockLifeStream) string { return blockLifeCloneable(s).fp() })
	})
	t.Run("peakhour", func(t *testing.T) {
		distributeRebuilds(t, func() *PeakHourInstances { return NewPeakHourInstances(0, 100) },
			func(p *PeakHourInstances) string { return peakHourCloneable(p).fp() })
	})
	t.Run("mailbox", func(t *testing.T) {
		distributeRebuilds(t, NewMailboxShare, func(m *MailboxShare) string { return mailboxCloneable(m).fp() })
	})
	t.Run("hierarchy", func(t *testing.T) {
		distributeRebuilds(t, func() *Hierarchy { return NewHierarchy(10) },
			func(h *Hierarchy) string { return hierarchyCloneable(h).fp() })
	})
	t.Run("names", func(t *testing.T) {
		distributeRebuilds(t, NewNamesStream, func(n *NamesStream) string { return namesCloneable(n).fp() })
	})
}

// decodeWantErr runs a decode that must fail with a message containing
// want, wrapped in the decoder's sticky ErrCorrupt.
func decodeWantErr(t *testing.T, blob []byte, dec func(*state.Decoder), want string) {
	t.Helper()
	err := decodeSection(t, blob, dec)
	if err == nil {
		t.Fatalf("decode succeeded, want error containing %q", want)
	}
	if !strings.Contains(err.Error(), want) {
		t.Fatalf("decode error %q does not contain %q", err, want)
	}
}

func TestStateDecodeValidation(t *testing.T) {
	ops := stateOps()

	t.Run("bucket-width-mismatch", func(t *testing.T) {
		b := stats.NewOpenTimeBuckets(1800)
		b.Add(10, 1)
		blob := encodeSection(t, func(e *state.Encoder) { encodeBuckets(e, b) })
		tgt := stats.NewOpenTimeBuckets(3600)
		decodeWantErr(t, blob, func(d *state.Decoder) { decodeBuckets(d, tgt) }, "does not match accumulator width")
	})
	t.Run("bucket-index-overflow", func(t *testing.T) {
		blob := encodeSection(t, func(e *state.Encoder) {
			e.F64(3600)
			e.Uvarint(1)
			e.Uvarint(maxBucketIndex + 1)
			e.F64(1)
		})
		tgt := stats.NewOpenTimeBuckets(3600)
		decodeWantErr(t, blob, func(d *state.Decoder) { decodeBuckets(d, tgt) }, "exceeds limit")
	})
	t.Run("blocklife-window-mismatch", func(t *testing.T) {
		s := NewBlockLifeStream(0, 50, 50)
		blob := encodeSection(t, s.EncodeState)
		tgt := NewBlockLifeStream(0, 60, 50)
		decodeWantErr(t, blob, tgt.DecodeState, "does not match receiver")
	})
	t.Run("blocklife-finalized", func(t *testing.T) {
		s := NewBlockLifeStream(0, 50, 50)
		for _, op := range ops {
			s.Add(op)
		}
		s.Result()
		blob := encodeSection(t, s.EncodeState)
		tgt := NewBlockLifeStream(0, 50, 50)
		decodeWantErr(t, blob, tgt.DecodeState, "finalized")
	})
	t.Run("peakhour-window-mismatch", func(t *testing.T) {
		p := NewPeakHourInstances(0, 100)
		blob := encodeSection(t, p.EncodeState)
		tgt := NewPeakHourInstances(50, 150)
		decodeWantErr(t, blob, tgt.DecodeState, "does not match receiver")
	})
	t.Run("peakhour-category-out-of-range", func(t *testing.T) {
		blob := encodeSection(t, func(e *state.Encoder) {
			e.F64(0)
			e.F64(100)
			e.Uvarint(1)
			e.FH(core.InternFH("f0"))
			e.Uvarint(uint64(numCategories) + 7)
		})
		tgt := NewPeakHourInstances(0, 100)
		decodeWantErr(t, blob, tgt.DecodeState, "out of range")
	})
	t.Run("names-category-count-mismatch", func(t *testing.T) {
		blob := encodeSection(t, func(e *state.Encoder) {
			e.Uvarint(uint64(numCategories) + 1)
		})
		tgt := NewNamesStream()
		decodeWantErr(t, blob, tgt.DecodeState, "does not match this build's")
	})
	t.Run("names-instance-category-out-of-range", func(t *testing.T) {
		blob := encodeSection(t, func(e *state.Encoder) {
			e.Uvarint(uint64(numCategories))
			e.Uvarint(1)
			e.FH(core.InternFH("f0"))
			e.String("bad")
			e.Uvarint(uint64(numCategories) + 3)
			e.F64(1)
			e.F64(0)
			e.Bool(false)
			e.Uvarint(0)
			e.Varint(0)
			e.Varint(0)
			e.Bool(true)
		})
		tgt := NewNamesStream()
		decodeWantErr(t, blob, tgt.DecodeState, "out of range")
	})
}
