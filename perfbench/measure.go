package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runtimeCounts are Go runtime totals from runtime/metrics; sub gives
// the counts over a timed region.
type runtimeCounts struct {
	allocBytes uint64
	gcCycles   uint64
	gcPause    float64 // seconds
}

func (c runtimeCounts) sub(o runtimeCounts) runtimeCounts {
	return runtimeCounts{c.allocBytes - o.allocBytes, c.gcCycles - o.gcCycles, c.gcPause - o.gcPause}
}

func (c runtimeCounts) allocMB() float64 { return float64(c.allocBytes) / (1 << 20) }

// pauseMetric is the stop-the-world GC pause histogram; Go 1.22
// renamed it, so the older name is the fallback.
var pauseMetric = func() string {
	for _, d := range metrics.All() {
		if d.Name == "/sched/pauses/total/gc:seconds" {
			return d.Name
		}
	}
	return "/gc/pauses:seconds"
}()

func readRuntime() runtimeCounts {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: pauseMetric},
	}
	metrics.Read(s)
	var c runtimeCounts
	if s[0].Value.Kind() == metrics.KindUint64 {
		c.allocBytes = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		c.gcCycles = s[1].Value.Uint64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64Histogram {
		c.gcPause = histogramSum(s[2].Value.Float64Histogram())
	}
	return c
}

// histogramSum estimates a duration histogram's total from bucket
// midpoints (the runtime's buckets are narrow, so the error is small);
// an open-ended edge bucket counts at its finite boundary.
func histogramSum(h *metrics.Float64Histogram) float64 {
	total := 0.0
	for i, n := range h.Counts {
		if n == 0 {
			continue
		}
		lo, hi := h.Buckets[i], h.Buckets[i+1]
		var v float64
		switch {
		case math.IsInf(lo, -1):
			v = hi
		case math.IsInf(hi, 1):
			v = lo
		default:
			v = (lo + hi) / 2
		}
		total += float64(n) * v
	}
	return total
}

// resetPeakRSS sets the process's peak resident set (VmHWM) to its
// current resident set, so peakRSSMB covers what follows.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set in MB since the last
// resetPeakRSS.
func peakRSSMB() (float64, error) {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/self/status")
}

// cpuSeconds is the process's user plus system CPU time so far. Time
// the host takes from the VM (steal) does not count, so a pass's CPU
// time beside its wall time tells host contention apart from work.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// machine is recorded with every result: what the numbers were
// measured on and with which concurrency.
type machine struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	GoVersion  string `json:"go"`
	// Decoders, Workers and MapParallel are the ingest decoder
	// goroutines, pipeline shard workers, and concurrent map
	// assignments, all pinned to nproc.
	Decoders    int   `json:"decoders"`
	Workers     int   `json:"workers"`
	MapParallel int   `json:"map_parallel"`
	Seed        int64 `json:"seed"`
}

func describeMachine(nproc int, seed int64) machine {
	return machine{
		NProc: nproc, GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(),
		GoVersion: runtime.Version(), Decoders: nproc, Workers: nproc, MapParallel: nproc, Seed: seed,
	}
}

func (m machine) String() string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d cpu=%s go=%s decoders=%d workers=%d map_parallel=%d seed=%d",
		m.NProc, m.GOMAXPROCS, m.CPU, m.GoVersion, m.Decoders, m.Workers, m.MapParallel, m.Seed)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.Join(strings.Fields(v), "_")
		}
	}
	return runtime.GOARCH
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// quantile interpolates linearly in sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}
