package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"

	"repro"
	"repro/internal/core"
)

// monitorRecords is how many CAMPUS records the monitor replays: five
// to ten days at DefaultScale, depending on the seed.
const monitorRecords = 1_100_000

// eecsPieces is how many binary pieces the EECS week is cut into: one
// per day of the week on average.
const eecsPieces = 7

// generate writes one workload input. It runs in a child process, so
// the generator's memory never counts toward the measuring process's
// peak resident set.
func generate(kind string, s repro.Scale, out string) error {
	switch kind {
	case "campus-text":
		// CAMPUS volume swings by a third from seed to seed (mailbox
		// sizes are lognormal), so the monitor replays a fixed record
		// count from the start of the trace; a seed whose week falls
		// short is generated over more days.
		records := repro.GenerateCampusRecords(s)
		for len(records) <= monitorRecords {
			s.Days *= 2
			records = repro.GenerateCampusRecords(s)
		}
		if cuts := quiescentCuts(records, []int{monitorRecords}); len(cuts) == 1 {
			records = records[:cuts[0]]
		}
		return writeFile(out, func(w io.Writer) error { return repro.WriteTrace(w, records) })
	case "eecs-bin":
		for i, piece := range splitQuiescent(repro.GenerateEECSRecords(s), eecsPieces) {
			err := writeFile(piecePath(out, i), func(w io.Writer) error {
				bw := core.NewBinaryWriter(w)
				for _, r := range piece {
					if err := bw.Write(r); err != nil {
						return err
					}
				}
				return bw.Flush()
			})
			if err != nil {
				return err
			}
		}
		return nil
	}
	return fmt.Errorf("unknown input %q", kind)
}

func piecePath(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("piece-%03d.bin", i))
}

func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}

// splitQuiescent cuts records into n pieces of near-equal length at
// quiescent points (see quiescentCuts), so each piece's call/reply join
// is complete and per-piece join statistics sum to the whole trace's.
// This is the cut tools/tracesplit makes.
func splitQuiescent(records []*core.Record, n int) [][]*core.Record {
	targets := make([]int, n-1)
	for k := range targets {
		targets[k] = (k + 1) * len(records) / n
	}
	var pieces [][]*core.Record
	from := 0
	for _, cut := range quiescentCuts(records, targets) {
		pieces = append(pieces, records[from:cut])
		from = cut
	}
	return append(pieces, records[from:])
}

// quiescentCuts returns, for each ascending target, the smallest end
// index at or past it after which no call awaits its reply. Targets
// with no such point before the last record get no cut.
func quiescentCuts(records []*core.Record, targets []int) []int {
	type key struct {
		client uint32
		port   uint16
		xid    uint32
	}
	pending := map[key]int{}
	var cuts []int
	for i, r := range records {
		if len(cuts) == len(targets) {
			break
		}
		k := key{r.Client, r.Port, r.XID}
		switch r.Kind {
		case core.KindCall:
			pending[k]++
		case core.KindReply:
			if pending[k] > 0 {
				if pending[k]--; pending[k] == 0 {
					delete(pending, k)
				}
			}
		}
		if len(pending) == 0 && i+1 < len(records) && i+1 >= targets[len(cuts)] {
			cuts = append(cuts, i+1)
		}
	}
	return cuts
}

// generateChild runs this binary with -gen in a child process and
// waits for it; the run's deadline kills it.
func (b *bench) generateChild(kind, out string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	cmd := exec.CommandContext(b.ctx, exe, "-gen", kind, "-seed", strconv.FormatInt(b.scale.Seed, 10), "-out", out)
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	id := b.tr.begin("generate."+kind, 0)
	defer b.tr.end(id)
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("generating %s: %w", kind, err)
	}
	return nil
}
