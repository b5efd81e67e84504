package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"runtime/pprof"
	"sort"
	"testing"
	"time"

	"cpx/internal/cluster"
	"cpx/internal/coupler"
	"cpx/internal/harness"
)

// The fig8-pipeline composition must reproduce harness.Options.Fig8 at
// Quick scale: same allocation, predicted and measured values.
func TestFig8CompositionMatchesHarness(t *testing.T) {
	want, err := harness.Options{Machine: cluster.ARCHER2(), Quick: true, Watchdog: time.Hour}.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{workload: "fig8-pipeline", metrics: map[string]metric{}}
	got, err := newFig8(0, true).run(b, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.table.Rows, want.Rows) {
		t.Fatalf("fig8-pipeline rows\n%v\nharness Fig8 rows\n%v", got.table.Rows, want.Rows)
	}
}

// The engine-5k layout must be the Fig. 9b engine: 16 instances, 15
// coupling units, the SIMPIC combustor at index 13 with steady units on
// both sides of it, sliding planes elsewhere, about 5,000 ranks.
func TestEngineLayoutMatchesFig9b(t *testing.T) {
	sim := engineLayout(0, 1, engineDensitySteps)
	if err := sim.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(sim.Instances) != 16 || len(sim.Units) != 15 {
		t.Fatalf("%d instances, %d units; want 16 and 15", len(sim.Instances), len(sim.Units))
	}
	wantMesh := []int64{8e6}
	for range 11 {
		wantMesh = append(wantMesh, 24e6)
	}
	wantMesh = append(wantMesh, 150e6, 380e6, 150e6, 300e6)
	for i, in := range sim.Instances {
		if in.MeshCells != wantMesh[i] {
			t.Errorf("instance %d mesh %d, want %d", i, in.MeshCells, wantMesh[i])
		}
		if (in.Kind == coupler.KindSIMPIC) != (i == 13) {
			t.Errorf("instance %d kind %v", i, in.Kind)
		}
	}
	for u, us := range sim.Units {
		steady := u == 12 || u == 13
		if us.A != u || us.B != u+1 || (us.Kind == coupler.SteadyState) != steady {
			t.Errorf("unit %d couples %d-%d kind %v", u, us.A, us.B, us.Kind)
		}
	}
	if n := sim.TotalRanks(); n < 4500 || n > 5500 {
		t.Errorf("%d ranks, want about 5,000", n)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Layer: "loadgen", Start: 0, End: 10},
		{ID: 2, Parent: 1, Layer: "serve", Start: 1, End: 4},
		{ID: 3, Parent: 1, Layer: "serve", Start: 3, End: 6},  // overlaps span 2
		{ID: 4, Parent: 1, Layer: "serve", Start: 9, End: 12}, // runs past its parent
		{ID: 5, Parent: 3, Layer: "coupler", Start: 4, End: 5},
	}
	got := selfTimes(spans)
	want := map[string]float64{"loadgen": 10 - 5 - 1, "serve": 3 + 2 + 3, "coupler": 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times %v, want %v", got, want)
	}
}

func TestModuleOf(t *testing.T) {
	for fn, want := range map[string]string{
		"cpx/internal/mpi.(*Comm).Send":             "mpi",
		"cpx/internal/amg.Setup":                    "amg",
		"cpx/internal/trace.(*Profile).Push":        "other",
		"runtime.gcDrain":                           "runtime",
		"internal/runtime/atomic.(*Uint32).Load":    "runtime",
		"math.Exp":                                  "other",
		"cpx/internal/serve.(*Server).post.func1":   "serve",
		"cpx/internal/sparse.SpGEMM[go.shape.int]":  "sparse",
		"cpx/perfbench.(*loadGen).exchange":         "other",
		"cpx/internal/coupler.(*Simulation).run.f1": "coupler",
	} {
		if got := moduleOf(fn); got != want {
			t.Errorf("moduleOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// A real CPU profile decodes, and its CPU time lands on known modules.
func TestCPUSelfByModule(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("cpu profiler busy:", err)
	}
	x := 0.0
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		for i := range 1000 {
			x += float64(i) * 1e-9
		}
	}
	pprof.StopCPUProfile()
	got, err := cpuSelfByModule(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for m, s := range got {
		if moduleOf("cpx/internal/"+m+".f") != m && m != "runtime" && m != "other" {
			t.Errorf("unknown module %q", m)
		}
		total += s
	}
	if total < 0.1 || x == 0 {
		t.Fatalf("decoded %.3f s of CPU from a 0.3 s busy loop", total)
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 300)
	for i := range xs {
		xs[i] = float64(i)
	}
	if q, _ := tailPercentile(xs); q != 0.95 {
		t.Errorf("300 samples: tail p%g, want p95", 100*q)
	}
	if q, v := tailPercentile(xs[:50]); q != 1 || v != 49 {
		t.Errorf("50 samples: tail p%g = %g, want the maximum", 100*q, v)
	}
}

// BENCHMARK.json must list exactly the metrics the program prints.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.name)
	}
	if !reflect.DeepEqual(names, have) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, have)
	}
	b := &bench{metrics: map[string]metric{}}
	b.attempted = 1
	b.endToEnd([]float64{1}, []float64{1}, []float64{1})
	var e2e []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name)
		if got, ok := b.metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("end-to-end metric %s (%s): program prints %+v", m.Name, m.Unit, got)
		}
	}
	if len(e2e) != len(b.metrics) {
		t.Errorf("BENCHMARK.json end_to_end %v, program prints %v", e2e, sortedKeys(b.metrics))
	}
	var layer, want []string
	for _, m := range spec.PerLayer {
		layer = append(layer, m.Name+" "+m.Unit)
	}
	for _, nu := range allLayerMetrics() {
		want = append(want, nu[0]+" "+nu[1])
	}
	sort.Strings(layer)
	sort.Strings(want)
	if !reflect.DeepEqual(layer, want) {
		t.Errorf("BENCHMARK.json per_layer\n%v\nprogram\n%v", layer, want)
	}
}

// Each block's misses take the sizes of missSteps in order, and a
// repeat never draws a scenario first requested in its own block.
func TestServeStream(t *testing.T) {
	misses := 0
	for _, k := range block {
		if k == kindMiss {
			misses++
		}
	}
	if misses != len(missSteps) {
		t.Fatalf("block has %d misses, missSteps %d sizes", misses, len(missSteps))
	}
	g, err := newLoadGen(&bench{seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for range warmScenarios {
		g.newOffset(smallSteps)
	}
	for blk := range 3 {
		before := map[int64]bool{}
		for _, off := range g.requested {
			before[off] = true
		}
		m := 0
		for i := range block {
			r := g.next()
			switch r.kind {
			case kindMiss:
				if got := g.steps[r.off]; got != missSteps[m] {
					t.Errorf("block %d miss %d: %d density steps, want %d", blk, m, got, missSteps[m])
				}
				m++
			case kindHit:
				if !before[r.off] {
					t.Errorf("block %d request %d repeats seed offset %d of its own block", blk, i, r.off)
				}
			case kindSweep:
				for _, off := range r.offs[:sweepRepeats] {
					if !before[off] || g.steps[off] != smallSteps {
						t.Errorf("block %d sweep %d repeats seed offset %d", blk, i, off)
					}
				}
			}
		}
	}
}
