package main

import (
	"bytes"
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"cpx/internal/cluster"
	"cpx/internal/coupler"
	"cpx/internal/harness"
	"cpx/internal/mesh"
	"cpx/internal/mgcfd"
	"cpx/internal/mpi"
	"cpx/internal/perfmodel"
	"cpx/internal/pressure"
	"cpx/internal/simpic"
	"cpx/internal/telemetry"
	"cpx/internal/trace"
)

// batchWorkload repeats one operation: a whole pipeline, one coupled
// run, or one Base-plus-Optimized profile.
type batchWorkload interface {
	// setUp generates the inputs from the seed and warms every layer the
	// pass calls with the same calls at smoke scale.
	setUp(b *bench) error
	// pass runs one operation, with its layer calls as children of span
	// root, and checks its outputs.
	pass(b *bench, root int) error
}

// runBatch sets up, then either repeats passes for the measuring window
// (untraced) or makes one untraced and one traced pass (traced). With
// probeProcs, the traced run also makes a GOMAXPROCS=1 pass.
func runBatch(b *bench, w batchWorkload, probeProcs bool) error {
	var setups []float64
	for range setupReps {
		t := time.Now()
		if err := w.setUp(b); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
	}
	timed := func(root int) float64 {
		t := time.Now()
		err := w.pass(b, root)
		d := time.Since(t).Seconds()
		b.op(err)
		return d
	}
	if !b.traceRun {
		var walls []float64
		start := time.Now()
		for len(walls) == 0 || time.Since(start) < b.window {
			walls = append(walls, timed(0))
		}
		b.endToEnd(setups, walls, walls)
		return nil
	}

	untraced := timed(0)
	b.startTrace()
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return fmt.Errorf("cpu profile: %w", err)
	}
	root := b.rec.begin(0, "bench", "pass")
	traced := timed(root)
	b.rec.end(root, 0)
	pprof.StopCPUProfile()
	b.traced = false

	extra := map[string]float64{"trace.overhead_pct": 100 * (traced - untraced) / untraced}
	fmt.Printf("wall untraced %.3f s, traced %.3f s\n", untraced, traced)
	if probeProcs {
		prev := runtime.GOMAXPROCS(1)
		one := timed(0)
		runtime.GOMAXPROCS(prev)
		extra["host.gomaxprocs1_speedup"] = untraced / one
		fmt.Printf("wall GOMAXPROCS=%d %.3f s, GOMAXPROCS=1 %.3f s\n", prev, untraced, one)
	}
	cpu, err := cpuSelfByModule(prof.Bytes())
	if err != nil {
		return err
	}
	for m, s := range cpu {
		extra["cpu_self_s."+m] = s
	}
	b.layerMetrics(extra)
	return nil
}

// mpiConfig is the runtime configuration of the benchmark's direct
// coupled runs: the mpi.Config defaults, plus the virtual-time metrics
// sampler while tracing (it never changes the virtual results).
func (b *bench) mpiConfig() mpi.Config {
	var cfg mpi.Config
	if b.traced {
		cfg.Metrics = &telemetry.Config{MaxSamples: 1}
	}
	return cfg
}

// noteCoupled adds a traced coupled run's message counters and virtual
// time split to the layer statistics.
func (b *bench) noteCoupled(rep *coupler.Report) {
	if !b.traced || rep == nil {
		return
	}
	l := b.layers
	l.mu.Lock()
	defer l.mu.Unlock()
	l.densitySteps += float64(rep.DensitySteps)
	l.couplingShare = max(l.couplingShare, rep.CouplingShare)
	if rep.Stats == nil || rep.Stats.Metrics == nil {
		return
	}
	for _, rs := range rep.Stats.Metrics.Ranks {
		t := rs.Totals
		l.msgs += t.MsgsSent
		l.bytes += t.BytesSent
		l.collectives += t.Collectives
		l.wait += t.Wait
		l.busy += t.Compute + t.Comm + t.Wait
	}
}

// noteRankSteps adds the rank-steps a standalone run executed.
func (b *bench) noteRankSteps(layer string, rankSteps float64) {
	if b.traced {
		b.layers.mu.Lock()
		b.layers.rankSteps[layer] += rankSteps
		b.layers.mu.Unlock()
	}
}

// ---- output checks ----------------------------------------------------------

//go:embed reference.json
var referenceJSON []byte

// reference maps workload -> seed -> digest of the virtual-time results.
var reference = func() map[string]map[string]string {
	var ref map[string]map[string]string
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		panic("perfbench: reference.json: " + err.Error())
	}
	return ref
}()

// digest hashes the exact bit patterns of virtual-time results, each
// word as its 8 little-endian bytes, with FNV-1a.
type digest struct {
	h   hash.Hash64
	buf []byte
}

func newDigest() *digest { return &digest{h: fnv.New64a()} }

func (d *digest) word(x uint64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf[:0], x)
	d.h.Write(d.buf)
}

func (d *digest) floats(xs ...float64) {
	for _, x := range xs {
		d.word(math.Float64bits(x))
	}
}

func (d *digest) ints(xs ...int) {
	for _, x := range xs {
		d.word(uint64(x))
	}
}

func (d *digest) str(s string) {
	for i := 0; i < len(s); i++ {
		d.word(uint64(s[i]))
	}
}

// check compares the digest with the reference shipped for this
// workload and seed; seeds without one are checked by invariants only.
func (d *digest) check(b *bench) error {
	got := fmt.Sprintf("%016x", d.h.Sum64())
	fmt.Fprintf(os.Stderr, "digest %s %d %s\n", b.workload, b.seed, got)
	want, ok := reference[b.workload][fmt.Sprint(b.seed)]
	if ok && want != got {
		return fmt.Errorf("virtual-time digest %s, reference %s", got, want)
	}
	return nil
}

// positive reports the first value that is not finite and positive.
func positive(what string, xs ...float64) error {
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) || x <= 0 {
			return fmt.Errorf("%s[%d] = %v, want finite and positive", what, i, x)
		}
	}
	return nil
}

// finite reports the first value that is negative, NaN or infinite.
func finite(what string, xs ...float64) error {
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
			return fmt.Errorf("%s[%d] = %v, want finite and non-negative", what, i, x)
		}
	}
	return nil
}

// ---- fig8-pipeline ----------------------------------------------------------

// fig8 is the paper's small coupled validation composed from public
// calls the way harness.Options.Fig8 composes it: fit MG-CFD and SIMPIC
// from standalone runs, fit the CU curves, allocate the budget, run the
// coupled simulation at the allocation, and export the table. The seed
// offsets every instance seed; offset 0 reproduces Fig8 exactly.
type fig8 struct {
	o                     harness.Options
	off                   int64
	budget, steps, sample int
	mgCores, spCores      []int
	mgMesh, spMesh        int64
	stc                   simpic.Config
}

func newFig8(seed int64, quick bool) *fig8 {
	f := &fig8{
		o: harness.DefaultOptions(), off: seed,
		budget: 5000, steps: 100, sample: 8,
		mgCores: []int{100, 200, 400, 800, 1600},
		spCores: []int{200, 800, 1600, 3200, 4800},
		mgMesh:  150_000_000, spMesh: 28_000_000,
		stc: simpic.BaseSTC(28_000_000),
	}
	if quick {
		f.budget, f.steps, f.sample = 60, 8, 4
		f.mgCores = []int{8, 16, 24}
		f.spCores = []int{8, 16, 24}
		f.mgMesh, f.spMesh = 40_000, 40_000
		f.stc = simpic.Config{Cells: 4096, ParticlesPerCell: 20, Steps: 2 * f.steps}
	}
	f.stc.Seed += seed
	return f
}

type fig8Result struct {
	table    *harness.Table
	alloc    *perfmodel.Allocation
	measured []float64
	errs     []float64
	worst    float64
	exported int
}

func (f *fig8) setUp(b *bench) error {
	_, err := newFig8(f.off, true).run(b, 0)
	return err
}

func (f *fig8) pass(b *bench, root int) error {
	r, err := f.run(b, root)
	if err != nil {
		return err
	}
	if b.traced {
		b.layers.modelErrPct = 100 * r.worst
	}
	total := 0
	for _, c := range r.alloc.Cores {
		total += c
	}
	if total > f.budget {
		return fmt.Errorf("allocation uses %d cores of a %d budget", total, f.budget)
	}
	for _, err := range []error{
		positive("allocated times", r.alloc.Times...),
		positive("measured times", r.measured...),
		finite("prediction errors", r.errs...),
	} {
		if err != nil {
			return err
		}
	}
	if r.exported == 0 {
		return fmt.Errorf("empty export")
	}
	d := newDigest()
	d.ints(r.alloc.Cores...)
	d.floats(r.alloc.Times...)
	d.floats(r.measured...)
	d.floats(r.errs...)
	return d.check(b)
}

// fit is perfmodel.FitCurve as a timed call.
func (b *bench) fit(root int, samples []perfmodel.Sample) (*perfmodel.Curve, error) {
	var c *perfmodel.Curve
	err := b.call(root, "perfmodel", "FitCurve", 0, func() (err error) {
		c, err = perfmodel.FitCurve(samples)
		return err
	})
	return c, err
}

func (f *fig8) run(b *bench, root int) (*fig8Result, error) {
	var mgSamples, spSamples []perfmodel.Sample
	for _, p := range f.mgCores {
		cfg := mgcfd.Config{MeshCells: f.mgMesh, Steps: f.steps, Seed: 1 + f.off}
		var rt float64
		err := b.call(root, "mgcfd", "MGCFDRuntime", p, func() (err error) {
			rt, err = f.o.MGCFDRuntime(cfg, p)
			return err
		})
		if err != nil {
			return nil, err
		}
		b.noteRankSteps("mgcfd", float64(p*f.steps)/mgcfd.SampledFraction(cfg, mgcfd.Production()))
		mgSamples = append(mgSamples, perfmodel.Sample{Cores: p, Runtime: rt})
	}
	mgCurve, err := b.fit(root, mgSamples)
	if err != nil {
		return nil, err
	}
	for _, p := range f.spCores {
		var rt float64
		err := b.call(root, "simpic", "SimpicRuntime", p, func() (err error) {
			rt, err = f.o.SimpicRuntime(f.stc, p)
			return err
		})
		if err != nil {
			return nil, err
		}
		b.noteRankSteps("simpic", float64(p*f.stc.Steps)/simpic.SampledFraction(f.stc, simpic.Production()))
		spSamples = append(spSamples, perfmodel.Sample{Cores: p, Runtime: rt})
	}
	spCurve, err := b.fit(root, spSamples)
	if err != nil {
		return nil, err
	}
	slidingPts := mesh.InterfaceCells(mesh.CubeDims(f.mgMesh), coupler.SlidingFraction)
	steadyPts := mesh.InterfaceCells(mesh.CubeDims(f.spMesh), coupler.SteadyFraction)
	cuSlide, err := b.fit(root, cuSamples(f.o.Machine, slidingPts, coupler.SlidingPlane))
	if err != nil {
		return nil, err
	}
	cuSteady, err := b.fit(root, cuSamples(f.o.Machine, steadyPts, coupler.SteadyState))
	if err != nil {
		return nil, err
	}
	steps := f.steps
	comps := []perfmodel.Component{
		{Name: "MG-CFD row 1 (150M)", Curve: mgCurve},
		{Name: "MG-CFD row 2 (150M)", Curve: mgCurve},
		{Name: "SIMPIC (28M equiv)", Curve: spCurve, IterRatio: float64(2*steps) / 10.0},
		{Name: "CU rows 1-2 (sliding)", Curve: cuSlide, IsCU: true, IterRatio: float64(steps)},
		{Name: "CU row-combustor (steady)", Curve: cuSteady, IsCU: true, IterRatio: float64(steps) / 20},
	}
	var alloc *perfmodel.Allocation
	err = b.call(root, "perfmodel", "Allocate", 0, func() (err error) {
		alloc, err = perfmodel.Allocate(comps, f.budget)
		return err
	})
	if err != nil {
		return nil, err
	}
	stc := f.stc
	sim := &coupler.Simulation{
		Instances: []coupler.InstanceSpec{
			{Name: comps[0].Name, Kind: coupler.KindMGCFD, MeshCells: f.mgMesh, Ranks: alloc.Cores[0], Seed: 1 + f.off},
			{Name: comps[1].Name, Kind: coupler.KindMGCFD, MeshCells: f.mgMesh, Ranks: alloc.Cores[1], Seed: 2 + f.off},
			{Name: comps[2].Name, Kind: coupler.KindSIMPIC, MeshCells: f.spMesh, Ranks: alloc.Cores[2], Simpic: &stc, Seed: 3 + f.off},
		},
		Units: []coupler.UnitSpec{
			{Name: comps[3].Name, A: 0, B: 1, Kind: coupler.SlidingPlane, Points: slidingPts,
				Ranks: alloc.Cores[3], Search: coupler.TreePrefetch},
			{Name: comps[4].Name, A: 1, B: 2, Kind: coupler.SteadyState, Points: steadyPts,
				Ranks: alloc.Cores[4], Search: coupler.TreePrefetch, ExchangeEvery: 20},
		},
		DensitySteps:    f.sample,
		RotationPerStep: 0.002,
		Scale:           coupler.ProductionScale(),
	}
	var rep *coupler.Report
	err = b.call(root, "coupler", "Simulation.Run", sim.TotalRanks(), func() (err error) {
		rep, err = sim.Run(b.mpiConfig())
		return err
	})
	if err != nil {
		return nil, err
	}
	b.noteCoupled(rep)

	res := &fig8Result{alloc: alloc}
	err = b.call(root, "export", "table", 0, func() error {
		t := &harness.Table{
			ID:      "fig8",
			Title:   fmt.Sprintf("Small coupled validation (150M/28M) on a %d-core budget", f.budget),
			Headers: []string{"component", "ranks", "predicted(s)", "measured(s)", "err"},
		}
		for i := range sim.Instances {
			measured := rep.ScaledInstanceTime(i, steps)
			e := perfmodel.RelativeError(alloc.Times[i], measured)
			res.worst = max(res.worst, e)
			res.measured = append(res.measured, measured)
			res.errs = append(res.errs, e)
			t.AddRow(comps[i].Name, fmt.Sprint(alloc.Cores[i]), fmt.Sprintf("%.2f", alloc.Times[i]),
				fmt.Sprintf("%.2f", measured), fmt.Sprintf("%.0f%%", 100*e))
		}
		summary, err := json.Marshal(rep.Stats.Summary())
		if err != nil {
			return err
		}
		res.table = t
		res.exported = len(t.String()) + len(summary)
		return nil
	})
	return res, err
}

// cuSamples is the analytic run-time of a coupling unit for one
// exchange at 1-128 ranks, the samples harness fits CU curves to: each
// CU rank maps and interpolates its share of the targets and moves its
// share of the interface bytes.
func cuSamples(m *cluster.Machine, points int, kind coupler.InterfaceKind) []perfmodel.Sample {
	var samples []perfmodel.Sample
	for _, p := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		targets := float64(points) / float64(p)
		mapper := &coupler.Mapper{Kind: coupler.TreePrefetch, LastHits: 95, LastMisses: 5}
		w := mapper.MapWork(targets, float64(points), kind == coupler.SlidingPlane)
		w = w.Add(coupler.InterpolateWork(targets))
		bytes := targets * 5 * 8 * 2
		rt := m.ComputeTime(w) + bytes/m.EffectiveInterBW() + 4*m.InterNodeLatency
		samples = append(samples, perfmodel.Sample{Cores: p, Runtime: rt})
	}
	return samples
}

// ---- engine-5k ----------------------------------------------------------------

// engineRow is one instance of the Fig. 9b layout with its ranks in the
// benchmark's fixed rank table.
type engineRow struct {
	name  string
	kind  coupler.SolverKind
	mesh  int64
	ranks int
}

// engineRows is the 16-instance HPC-Combustor-HPT layout of Fig. 9b on a
// fixed table of 4,864 instance ranks: the SIMPIC combustor takes most of
// them, as in the paper's Base-STC allocation, and every MG-CFD row keeps
// at least 32.
func engineRows() []engineRow {
	rows := []engineRow{{"row01 (8M)", coupler.KindMGCFD, 8_000_000, 32}}
	for i := 2; i <= 12; i++ {
		rows = append(rows, engineRow{fmt.Sprintf("row%02d (24M)", i), coupler.KindMGCFD, 24_000_000, 32})
	}
	return append(rows,
		engineRow{"row13 (150M)", coupler.KindMGCFD, 150_000_000, 64},
		engineRow{"combustor (380M equiv)", coupler.KindSIMPIC, 380_000_000, 4224},
		engineRow{"row15 (150M)", coupler.KindMGCFD, 150_000_000, 64},
		engineRow{"row16 (300M)", coupler.KindMGCFD, 300_000_000, 128},
	)
}

// Coupling-unit ranks and the sampled duration of engine-5k.
const (
	engineSlidingRanks = 8
	engineSteadyRanks  = 16
	engineDensitySteps = 4
)

// engineLayout builds the coupled simulation: CU i couples instances i
// and i+1, steady (every 20 steps) next to the combustor and sliding
// elsewhere. Rank counts are divided by div (at least 1 each) for the
// smoke-scale warm-up; off offsets every instance seed.
func engineLayout(off int64, div, steps int) *coupler.Simulation {
	rows := engineRows()
	sim := &coupler.Simulation{DensitySteps: steps, RotationPerStep: 0.002, Scale: coupler.ProductionScale()}
	for i, r := range rows {
		spec := coupler.InstanceSpec{Name: r.name, Kind: r.kind, MeshCells: r.mesh,
			Ranks: max(1, r.ranks/div), Seed: int64(i+1) + off}
		if r.kind == coupler.KindSIMPIC {
			cfg := simpic.BaseSTC(r.mesh)
			spec.Simpic = &cfg
		}
		sim.Instances = append(sim.Instances, spec)
	}
	for i := 0; i+1 < len(rows); i++ {
		a, b := rows[i], rows[i+1]
		kind, frac, every, ranks := coupler.SlidingPlane, coupler.SlidingFraction, 1, engineSlidingRanks
		if a.kind == coupler.KindSIMPIC || b.kind == coupler.KindSIMPIC {
			kind, frac, every, ranks = coupler.SteadyState, coupler.SteadyFraction, 20, engineSteadyRanks
		}
		sim.Units = append(sim.Units, coupler.UnitSpec{
			Name: fmt.Sprintf("CU %02d-%02d", i+1, i+2), A: i, B: i + 1, Kind: kind,
			Points: mesh.InterfaceCells(mesh.CubeDims(min(a.mesh, b.mesh)), frac),
			Ranks:  max(1, ranks/div), Search: coupler.TreePrefetch, ExchangeEvery: every,
		})
	}
	return sim
}

type engine struct{ off int64 }

func newEngine(seed int64) *engine { return &engine{off: seed} }

func (e *engine) setUp(b *bench) error {
	_, err := engineLayout(e.off, 64, 2).Run(mpi.Config{})
	return err
}

func (e *engine) pass(b *bench, root int) error {
	sim := engineLayout(e.off, 1, engineDensitySteps)
	var rep *coupler.Report
	err := b.call(root, "coupler", "Simulation.Run", sim.TotalRanks(), func() (err error) {
		rep, err = sim.Run(b.mpiConfig())
		return err
	})
	if err != nil {
		return err
	}
	b.noteCoupled(rep)
	if len(rep.RankDigests) != sim.TotalRanks() {
		return fmt.Errorf("%d rank digests for %d ranks", len(rep.RankDigests), sim.TotalRanks())
	}
	for _, err := range []error{
		positive("elapsed", rep.Elapsed),
		positive("instance times", rep.InstanceTime...),
		positive("unit times", rep.UnitTime...),
	} {
		if err != nil {
			return err
		}
	}
	d := newDigest()
	d.floats(rep.Elapsed)
	d.floats(rep.InstanceTime...)
	d.floats(rep.UnitTime...)
	for _, rd := range rep.RankDigests {
		d.word(rd)
	}
	return d.check(b)
}

// ---- pressure-profile -------------------------------------------------------

// pressureCores is the rank count of pressure-profile, the low end of
// the 128-2,048-core range of Figs. 5 and 6.
const pressureCores = 128

// pressureSeeds is how many solver seeds one pass profiles. The seed
// changes the AMG hierarchy and with it the solver's work by up to a
// fifth, so a pass averages over several to keep one workload seed from
// deciding the run's time.
const pressureSeeds = 4

// pressureRegions are the profiled functions every run must report.
var pressureRegions = []string{"pressure_field", "spray", "momentum", "scalars", "combustion"}

// pressureProfile profiles solver seeds pressureSeeds*seed+1 to
// pressureSeeds*seed+pressureSeeds, each in both variants.
type pressureProfile struct{ first int64 }

func newPressure(seed int64) *pressureProfile {
	return &pressureProfile{first: pressureSeeds*seed + 1}
}

func (p *pressureProfile) setUp(b *bench) error {
	o := harness.DefaultOptions()
	for _, v := range []pressure.Variant{pressure.Base, pressure.Optimized} {
		if _, _, err := o.PressureRuntime(pressure.Config{MeshCells: 200_000, Steps: 2, Variant: v, Seed: p.first}, 8, true); err != nil {
			return err
		}
	}
	return nil
}

func (p *pressureProfile) pass(b *bench, root int) error {
	o := harness.DefaultOptions()
	d := newDigest()
	for seed := p.first; seed < p.first+pressureSeeds; seed++ {
		for _, v := range []pressure.Variant{pressure.Base, pressure.Optimized} {
			cfg := pressure.Config{MeshCells: 28_000_000, Steps: 10, Variant: v, Seed: seed}
			var rt float64
			var prof *trace.Profile
			err := b.call(root, "pressure", v.String(), pressureCores, func() (err error) {
				rt, prof, err = o.PressureRuntime(cfg, pressureCores, true)
				return err
			})
			if err != nil {
				return err
			}
			if err := checkProfile(d, v.String(), rt, prof); err != nil {
				return err
			}
		}
	}
	return d.check(b)
}

// checkProfile checks one profiled run and adds it to the digest.
func checkProfile(d *digest, variant string, rt float64, prof *trace.Profile) error {
	if err := positive(variant+" run-time", rt); err != nil {
		return err
	}
	d.floats(rt)
	have := map[string]bool{}
	for _, name := range prof.Regions() {
		e := prof.Entry(name)
		if err := finite(variant+" profile "+name, e.Compute, e.Comm); err != nil {
			return err
		}
		have[name] = true
		d.str(name)
		d.floats(e.Compute, e.Comm)
		d.ints(int(e.Calls))
	}
	for _, r := range pressureRegions {
		if !have[r] {
			return fmt.Errorf("%s profile lacks region %q", variant, r)
		}
	}
	return nil
}
