// Command perfbench is the CPX benchmark. It runs one named workload
// against the program's public packages with inputs generated from a
// seed, checks every output, and prints the metrics as one JSON line:
// the end-to-end metrics from an untraced run (-trace 0) or the
// per-layer metrics from a traced run (-trace 1).
//
//	go run . -workload engine-5k -seed 1 -seconds 20 -trace 0
//
// README.md lists the workloads, the metrics and what each layer metric
// should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// processStart anchors span times and the set-up clock.
var processStart = time.Now()

// setupReps is how many times a workload sets up before timing; setup_s
// is the median, so one slow first set-up (cold heap, page faults) does
// not decide it.
const setupReps = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one named input set of the benchmark.
type workload struct {
	name string
	run  func(b *bench) error
}

var workloads = []workload{
	{"fig8-pipeline", func(b *bench) error { return runBatch(b, newFig8(b.seed, false), false) }},
	{"engine-5k", func(b *bench) error { return runBatch(b, newEngine(b.seed), true) }},
	{"pressure-profile", func(b *bench) error { return runBatch(b, newPressure(b.seed), false) }},
	{"serve-mixed", runServe},
}

// bench is the state of one benchmark process: the workload inputs'
// seed, the measuring window, the operation tally and the metrics.
type bench struct {
	workload string
	seed     int64
	window   time.Duration
	traceRun bool // this is the traced run (-trace 1)
	traced   bool // calls are being traced right now
	outDir   string

	attempted, failed int
	metrics           map[string]metric

	// Traced runs only.
	rec    *recorder
	layers *layerStats
}

// op records the outcome of one attempted operation; a failed output
// check counts exactly like a failed call.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: operation failed: %v\n", b.workload, b.seed, err)
	}
}

func (b *bench) set(name string, value float64, unit string) {
	if math.IsNaN(value) || math.IsInf(value, 0) {
		value = 0
	}
	b.metrics[name] = metric{Value: value, Unit: unit}
}

// endToEnd sets the untraced metrics from the set-up times, the
// operation times measured from when each operation started, and the
// latencies measured from when each was due (the same as the operation
// times for batch workloads, which have no schedule).
func (b *bench) endToEnd(setups, walls, latencies []float64) {
	fmt.Printf("set-ups (s): %.4f\n", setups)
	if len(walls) <= 20 {
		fmt.Printf("operations (s): %.4f\n", walls)
	}
	b.set("setup_s", median(setups), "s")
	b.set("wall_s", median(walls), "s")
	b.set("latency_p50_ms", 1000*median(latencies), "ms")
	q, tail := tailPercentile(latencies)
	b.set("latency_tail_ms", 1000*tail, "ms")
	fmt.Printf("latency: n=%d p50=%.3f ms tail=p%g %.3f ms\n", len(latencies), 1000*median(latencies), 100*q, 1000*tail)
	ok := 0.0
	if b.attempted > 0 {
		ok = float64(b.attempted-b.failed) / float64(b.attempted)
	}
	b.set("ok_ratio", ok, "ratio")
	b.set("peak_rss_mib", peakRSSMiB(), "MiB")
}

func main() {
	name := flag.String("workload", "", "workload name: "+workloadNames())
	seed := flag.Int64("seed", 1, "seed the workload inputs are generated from")
	seconds := flag.Int("seconds", 20, "measuring window in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced run that reports the per-layer metrics")
	outDir := flag.String("outdir", ".bench_build/perfbench", "directory for span files and temporary data")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s)\n", *name, workloadNames())
		os.Exit(2)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be >= 1 and -trace 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	b := &bench{
		workload: w.name, seed: *seed, window: time.Duration(*seconds) * time.Second,
		traceRun: *trace == 1, outDir: *outDir, metrics: map[string]metric{},
	}
	if err := w.run(b); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if b.attempted == 0 {
		fmt.Fprintln(os.Stderr, "perfbench: no operation was attempted")
		os.Exit(1)
	}
	for _, k := range sortedKeys(b.metrics) {
		fmt.Printf("%-36s %14.6g %s\n", k, b.metrics[k].Value, b.metrics[k].Unit)
	}
	line, err := json.Marshal(result{
		Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: b.metrics,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if b.failed > 0 {
		os.Exit(3)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// peakRSSMiB reads the process's peak resident set (VmHWM).
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kib float64
			fmt.Sscanf(strings.TrimSpace(rest), "%g", &kib)
			return kib / 1024
		}
	}
	return 0
}

// ---- statistics ------------------------------------------------------------

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailQuantiles are the candidate tail percentiles, highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9}

// tailPercentile returns the highest candidate percentile that has at
// least ten samples beyond it, and its value. With too few samples for
// p90 it falls back to the maximum (q = 1).
func tailPercentile(xs []float64) (q, v float64) {
	for _, q := range tailQuantiles {
		if float64(len(xs))*(1-q) >= 10 {
			return q, quantile(xs, q)
		}
	}
	return 1, quantile(xs, 1)
}
