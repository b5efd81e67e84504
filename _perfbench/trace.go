package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary. Times are seconds
// since the benchmark process started; Parent is 0 for a root span.
// Every span of one workload run shares Run.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Run    string  `json:"run"`
	Layer  string  `json:"layer"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Ranks  int     `json:"ranks,omitempty"`
}

func (s span) dur() float64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, which is how untraced runs stay untraced.
type recorder struct {
	mu    sync.Mutex
	run   string
	spans []span
}

func newRecorder(run string) *recorder { return &recorder{run: run} }

func sinceStart() float64 { return time.Since(processStart).Seconds() }

// begin opens a span and returns its ID (0 on a nil recorder).
func (r *recorder) begin(parent int, layer, name string) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Parent: parent, Run: r.run, Layer: layer, Name: name, Start: sinceStart()})
	return id
}

// end closes span id, noting how many ranks the call launched.
func (r *recorder) end(id, ranks int) {
	if r == nil || id == 0 {
		return
	}
	t := sinceStart()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans[id-1].End = t
	r.spans[id-1].Ranks = ranks
}

func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// write stores the spans as one JSON document.
func (r *recorder) write(path string) error {
	raw, err := json.MarshalIndent(struct {
		Run   string `json:"run"`
		Spans []span `json:"spans"`
	}{r.run, r.snapshot()}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}

// selfTimes returns each layer's self time: the sum over its spans of
// the span's duration minus the part of it covered by child spans.
func selfTimes(spans []span) map[string]float64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Layer] += s.dur() - covered(s, children[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals
// clipped to the parent's.
func covered(parent span, kids []span) float64 {
	type iv struct{ lo, hi float64 }
	var ivs []iv
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	total, curLo, curHi := 0.0, 0.0, -1.0
	for i, v := range ivs {
		if i == 0 || v.lo > curHi {
			if i > 0 {
				total += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	if len(ivs) > 0 {
		total += curHi - curLo
	}
	return total
}

// callStat is the host cost of one run-level call (a call that launches
// simulated ranks), sampled from outside the call.
type callStat struct {
	layer       string
	ranks       int
	peakHeap    uint64 // peak heap objects plus goroutine stacks above the call's start, bytes
	allocBytes  uint64
	gcCycles    uint64
	gcPauseNano uint64
}

// layerStats collects the per-call samples of a traced run.
type layerStats struct {
	mu    sync.Mutex
	calls []callStat
	// mpi message counters summed from the returned Stats of coupled
	// runs (mpi.Config.Metrics is set in traced runs only).
	msgs, bytes, collectives uint64
	wait, busy               float64
	// Work the workload reports about its own calls.
	rankSteps     map[string]float64 // layer -> ranks x executed steps of its standalone runs
	densitySteps  float64            // coupled density steps run
	couplingShare float64            // largest virtual coupling share of a coupled run
	modelErrPct   float64            // Alg. 1's worst per-instance prediction error
}

// call times fn as one span under parent. In a traced run it also
// samples heap, allocation and GC around the call; ranks > 0 marks a
// run-level call.
func (b *bench) call(parent int, layer, name string, ranks int, fn func() error) error {
	if !b.traced {
		return fn()
	}
	// Collect first, so the baseline is the live heap and not garbage
	// left by earlier calls.
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	base := ms0.HeapAlloc + ms0.StackInuse
	smp := startHeapSampler()
	id := b.rec.begin(parent, layer, name)
	err := fn()
	b.rec.end(id, ranks)
	peak := smp.stop()
	runtime.ReadMemStats(&ms1)
	if ranks > 0 {
		cs := callStat{layer: layer, ranks: ranks, allocBytes: ms1.TotalAlloc - ms0.TotalAlloc,
			gcCycles: uint64(ms1.NumGC - ms0.NumGC), gcPauseNano: ms1.PauseTotalNs - ms0.PauseTotalNs}
		if peak > base {
			cs.peakHeap = peak - base
		}
		b.layers.mu.Lock()
		b.layers.calls = append(b.layers.calls, cs)
		b.layers.mu.Unlock()
	}
	return err
}

// heapSampler polls the heap size every few milliseconds and keeps the
// peak, so a call's transient per-rank footprint shows even when the
// heap has shrunk by the time the call returns.
type heapSampler struct {
	stopc chan struct{}
	done  chan uint64
}

// heapMetrics are the parts of the Go heap that grow with the rank
// count: heap objects (live and not yet swept) and goroutine stacks.
var heapMetrics = []string{"/memory/classes/heap/objects:bytes", "/memory/classes/heap/stacks:bytes"}

func readHeap(s []metrics.Sample) uint64 {
	metrics.Read(s)
	var total uint64
	for _, m := range s {
		if m.Value.Kind() == metrics.KindUint64 {
			total += m.Value.Uint64()
		}
	}
	return total
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		s := make([]metrics.Sample, len(heapMetrics))
		for i, name := range heapMetrics {
			s[i].Name = name
		}
		peak := readHeap(s)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stopc:
				h.done <- max(peak, readHeap(s))
				return
			case <-tick.C:
				peak = max(peak, readHeap(s))
			}
		}
	}()
	return h
}

func (h *heapSampler) stop() uint64 {
	close(h.stopc)
	return <-h.done
}

// layerMetricNames is every per-layer metric with its unit, in the order
// BENCHMARK.json lists them. Every traced run prints all of them; a
// layer a workload does not exercise reads 0.
var layerMetricNames = [][2]string{
	{"mgcfd.runs", "count"}, {"mgcfd.host_s", "s"}, {"mgcfd.host_us_per_rank_step", "us"},
	{"simpic.runs", "count"}, {"simpic.host_s", "s"}, {"simpic.host_us_per_rank_step", "us"},
	{"simpic.peak_heap_kib_per_rank", "KiB"},
	{"mpi.ranks_launched", "count"}, {"mpi.peak_heap_kib_per_rank", "KiB"}, {"mpi.alloc_mib", "MiB"},
	{"mpi.gc_cycles", "count"}, {"mpi.gc_pause_ms", "ms"},
	{"mpi.msgs", "count"}, {"mpi.bytes_mib", "MiB"}, {"mpi.collectives", "count"}, {"mpi.virtual_wait_share", "ratio"},
	{"coupler.runs", "count"}, {"coupler.host_s", "s"}, {"coupler.host_ms_per_density_step", "ms"},
	{"coupler.coupling_share", "ratio"},
	{"perfmodel.fit_calls", "count"}, {"perfmodel.fit_ms", "ms"}, {"perfmodel.allocate_calls", "count"},
	{"perfmodel.allocate_ms", "ms"}, {"perfmodel.model_err_pct", "%"},
	{"pressure.base.host_s", "s"}, {"pressure.optimized.host_s", "s"},
	{"export.ms", "ms"},
	{"serve.simulate_hit.p50_ms", "ms"}, {"serve.simulate_miss.p50_ms", "ms"}, {"serve.allocate.p50_ms", "ms"},
	{"serve.sweep.p50_ms", "ms"}, {"serve.cache_hit_ratio", "ratio"}, {"serve.refused", "count"},
	{"serve.disk_puts", "count"}, {"serve.disk_hits", "count"}, {"serve.cache_evictions", "count"},
	{"serve.slo_rate_rps", "1/s"},
	{"loadgen.sent", "count"}, {"loadgen.ok", "count"}, {"loadgen.failed", "count"}, {"loadgen.lag_p99_ms", "ms"},
	{"trace.overhead_pct", "%"}, {"host.gomaxprocs1_speedup", "ratio"},
}

// allLayerMetrics extends layerMetricNames with the per-phase load
// generator tallies and the CPU attribution by module.
func allLayerMetrics() [][2]string {
	out := append([][2]string(nil), layerMetricNames...)
	for _, ph := range loadPhaseNames() {
		for _, k := range []string{"sent", "ok", "failed"} {
			out = append(out, [2]string{"loadgen." + ph + "." + k, "count"})
		}
	}
	for _, m := range cpuModules {
		out = append(out, [2]string{"cpu_self_s." + m, "s"})
	}
	return out
}

// layerMetrics fills every per-layer metric from the spans, the sampled
// run-level calls and the extra values the workload measured itself.
func (b *bench) layerMetrics(extra map[string]float64) {
	spans := b.rec.snapshot()
	count := map[string]float64{}
	host := map[string]float64{}
	for _, s := range spans {
		key := s.Layer + "/" + s.Name
		count[key]++
		host[key] += s.dur()
		count[s.Layer]++
		host[s.Layer] += s.dur()
	}
	vals := map[string]float64{
		"mgcfd.runs": count["mgcfd"], "mgcfd.host_s": host["mgcfd"],
		"simpic.runs": count["simpic"], "simpic.host_s": host["simpic"],
		"coupler.runs": count["coupler"], "coupler.host_s": host["coupler"],
		"perfmodel.fit_calls": count["perfmodel/FitCurve"], "perfmodel.fit_ms": 1000 * host["perfmodel/FitCurve"],
		"perfmodel.allocate_calls": count["perfmodel/Allocate"], "perfmodel.allocate_ms": 1000 * host["perfmodel/Allocate"],
		"pressure.base.host_s":      host["pressure/Base"],
		"pressure.optimized.host_s": host["pressure/Optimized"],
		"export.ms":                 1000 * host["export"],
	}
	var top, topSimpic callStat
	var ranks, alloc, gcs, pause uint64
	for _, c := range b.layers.calls {
		ranks += uint64(c.ranks)
		alloc += c.allocBytes
		gcs += c.gcCycles
		pause += c.gcPauseNano
		if c.ranks > top.ranks {
			top = c
		}
		if c.layer == "simpic" && c.ranks > topSimpic.ranks {
			topSimpic = c
		}
	}
	perRank := func(c callStat) float64 {
		if c.ranks == 0 {
			return 0
		}
		return float64(c.peakHeap) / 1024 / float64(c.ranks)
	}
	l := b.layers
	perStep := func(host, steps, scale float64) float64 {
		if steps == 0 {
			return 0
		}
		return scale * host / steps
	}
	vals["mgcfd.host_us_per_rank_step"] = perStep(host["mgcfd"], l.rankSteps["mgcfd"], 1e6)
	vals["simpic.host_us_per_rank_step"] = perStep(host["simpic"], l.rankSteps["simpic"], 1e6)
	vals["coupler.host_ms_per_density_step"] = perStep(host["coupler"], l.densitySteps, 1e3)
	vals["coupler.coupling_share"] = l.couplingShare
	vals["perfmodel.model_err_pct"] = l.modelErrPct
	vals["mpi.ranks_launched"] = float64(ranks)
	vals["mpi.peak_heap_kib_per_rank"] = perRank(top)
	vals["simpic.peak_heap_kib_per_rank"] = perRank(topSimpic)
	vals["mpi.alloc_mib"] = float64(alloc) / (1 << 20)
	vals["mpi.gc_cycles"] = float64(gcs)
	vals["mpi.gc_pause_ms"] = float64(pause) / 1e6
	vals["mpi.msgs"] = float64(b.layers.msgs)
	vals["mpi.bytes_mib"] = float64(b.layers.bytes) / (1 << 20)
	vals["mpi.collectives"] = float64(b.layers.collectives)
	if b.layers.busy > 0 {
		vals["mpi.virtual_wait_share"] = b.layers.wait / b.layers.busy
	}
	for k, v := range extra {
		vals[k] = v
	}
	for _, nu := range allLayerMetrics() {
		b.set(nu[0], vals[nu[0]], nu[1])
	}
	for layer, self := range selfTimes(spans) {
		fmt.Printf("self time %-10s %10.4f s\n", layer, self)
	}
	if top.ranks > 0 {
		fmt.Printf("heap per rank at the largest run-level call (%s, %d ranks): %.1f KiB; x40,000 ranks = %.2f GiB\n",
			top.layer, top.ranks, perRank(top), perRank(top)*40000/(1<<20))
	}
	path := filepath.Join(b.outDir, fmt.Sprintf("spans-%s-seed%d.json", b.workload, b.seed))
	if err := b.rec.write(path); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: writing spans:", err)
	} else {
		fmt.Printf("spans: %d written to %s\n", len(spans), path)
	}
}

// startTrace switches b into traced mode for the calls that follow.
func (b *bench) startTrace() {
	b.traced = true
	b.rec = newRecorder(fmt.Sprintf("%s-seed%d-%d", b.workload, b.seed, time.Now().UnixNano()))
	b.layers = &layerStats{rankSteps: map[string]float64{}}
}
