// Benchmarks regenerating the paper's tables and figures (smoke-scale
// geometry; run cmd/cpxbench for the full paper-scale sweeps) plus
// microbenchmarks of the performance-critical kernels the study hinges
// on. One benchmark per table/figure, named after it.
package cpx_test

import (
	"testing"
	"time"

	"cpx"
	"cpx/internal/amg"
	"cpx/internal/cluster"
	"cpx/internal/coupler"
	"cpx/internal/harness"
	"cpx/internal/mgcfd"
	"cpx/internal/mpi"
	"cpx/internal/simpic"
	"cpx/internal/sparse"
)

func quickOpts() harness.Options {
	return harness.Options{Machine: cluster.ARCHER2(), Quick: true, Watchdog: 20 * time.Minute}
}

// ---- One benchmark per paper table/figure -----------------------------------

func BenchmarkFig3STCEquivalence(b *testing.B) {
	o := quickOpts()
	for i := 0; i < b.N; i++ {
		if _, err := o.Fig3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4SpeedupPressureVsSIMPIC(b *testing.B) {
	o := quickOpts()
	for i := 0; i < b.N; i++ {
		if _, err := o.Fig4ab(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4cLargeBaseSTC(b *testing.B) {
	o := quickOpts()
	for i := 0; i < b.N; i++ {
		if _, err := o.Fig4c(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5aFunctionBreakdown(b *testing.B) {
	o := quickOpts()
	for i := 0; i < b.N; i++ {
		if _, err := o.Fig5a(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5bFunctionPE(b *testing.B) {
	o := quickOpts()
	for i := 0; i < b.N; i++ {
		if _, err := o.Fig5b(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6aOptimizedPE(b *testing.B) {
	o := quickOpts()
	for i := 0; i < b.N; i++ {
		if _, err := o.Fig6a(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6bcOptimizedSTC(b *testing.B) {
	o := quickOpts()
	for i := 0; i < b.N; i++ {
		if _, err := o.Fig6bc(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig8SmallCoupledValidation(b *testing.B) {
	o := quickOpts()
	for i := 0; i < b.N; i++ {
		if _, err := o.Fig8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig9FullEngine(b *testing.B) {
	o := quickOpts()
	for i := 0; i < b.N; i++ {
		if _, err := o.RunEngine(false, 400); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSensitivityBounds(b *testing.B) {
	o := quickOpts()
	for i := 0; i < b.N; i++ {
		if _, err := o.Sensitivity(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAMGAblationTable(b *testing.B) {
	o := quickOpts()
	for i := 0; i < b.N; i++ {
		if _, err := o.AMGAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSearchAblationTable(b *testing.B) {
	o := quickOpts()
	for i := 0; i < b.N; i++ {
		if _, err := o.SearchAblation(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOverlapStudyTable(b *testing.B) {
	o := quickOpts()
	for i := 0; i < b.N; i++ {
		if _, err := o.OverlapStudy(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Kernel microbenchmarks ---------------------------------------------------

func BenchmarkSpMV(b *testing.B) {
	a := sparse.Poisson3D(32, 32, 32)
	x := make([]float64, a.Rows)
	y := make([]float64, a.Rows)
	for i := range x {
		x[i] = float64(i % 7)
	}
	b.SetBytes(int64(a.NNZ() * 16))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.MulVec(x, y)
	}
}

func BenchmarkSpGEMMTwoPass(b *testing.B) {
	a := sparse.Poisson3D(16, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.MulTwoPass(a, a)
	}
}

func BenchmarkSpGEMMSPA(b *testing.B) {
	a := sparse.Poisson3D(16, 16, 16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sparse.MulSPA(a, a, 0)
	}
}

func BenchmarkAMGSetupBase(b *testing.B) {
	a := sparse.Poisson3D(16, 16, 16)
	for i := 0; i < b.N; i++ {
		if _, err := amg.Setup(a, amg.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAMGSetupOptimized(b *testing.B) {
	a := sparse.Poisson3D(16, 16, 16)
	for i := 0; i < b.N; i++ {
		if _, err := amg.Setup(a, amg.OptimizedOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAMGVCycle(b *testing.B) {
	a := sparse.Poisson3D(16, 16, 16)
	h, err := amg.Setup(a, amg.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	rhs := make([]float64, a.Rows)
	x := make([]float64, a.Rows)
	for i := range rhs {
		rhs[i] = float64(i%5) - 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ApplyCycle(rhs, x)
	}
}

func BenchmarkKDTreeBuild(b *testing.B) {
	pts := coupler.AnnulusPoints(50_000, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		coupler.BuildKDTree(pts)
	}
}

func BenchmarkKDTreeKNN(b *testing.B) {
	pts := coupler.AnnulusPoints(50_000, 1)
	tree := coupler.BuildKDTree(pts)
	queries := coupler.AnnulusPoints(1000, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.KNearest(queries[i%len(queries)], 4)
	}
}

func BenchmarkSlidingPlaneRemap(b *testing.B) {
	donors := coupler.AnnulusPoints(20_000, 3)
	targets := coupler.AnnulusPoints(5_000, 4)
	m := &coupler.Mapper{Kind: coupler.TreePrefetch}
	m.Map(targets, donors)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Map(targets, coupler.Rotate(donors, 0.001*float64(i+1)))
	}
}

func BenchmarkPICStep(b *testing.B) {
	b.ReportAllocs()
	_, err := mpi.Run(4, cpx.RunConfig{Machine: cluster.SmallCluster()}, func(c *mpi.Comm) error {
		s, err := simpic.New(c, simpic.Config{Cells: 8192, ParticlesPerCell: 40, Steps: 1, Seed: 1}, simpic.ScaleOpts{})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			s.Step()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkMGCFDStep(b *testing.B) {
	b.ReportAllocs()
	_, err := mpi.Run(4, cpx.RunConfig{Machine: cluster.SmallCluster()}, func(c *mpi.Comm) error {
		s, err := mgcfd.New(c, mgcfd.Config{MeshCells: 32_768, Steps: 1, Seed: 1}, mgcfd.ScaleOpts{})
		if err != nil {
			return err
		}
		if c.Rank() == 0 {
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			s.Step()
		}
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkVirtualAllreduce4096Ranks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_, err := mpi.Run(4096, cpx.RunConfig{Machine: cluster.ARCHER2()}, func(c *mpi.Comm) error {
			c.AllreduceScalar(float64(c.Rank()), mpi.Sum)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCoupledThreeComponentStep(b *testing.B) {
	stc := simpic.Config{Cells: 1024, ParticlesPerCell: 10, Steps: 2, Seed: 1}
	for i := 0; i < b.N; i++ {
		sim := &cpx.Simulation{
			Instances: []cpx.Instance{
				{Name: "hpc", Kind: cpx.MGCFD, MeshCells: 8_000, Ranks: 4, Seed: 1},
				{Name: "comb", Kind: cpx.SIMPIC, MeshCells: 28_000_000, Ranks: 4, Simpic: &stc, Seed: 2},
				{Name: "hpt", Kind: cpx.MGCFD, MeshCells: 8_000, Ranks: 4, Seed: 3},
			},
			Units: []cpx.CouplingUnit{
				{Name: "cu1", A: 0, B: 1, Kind: cpx.SteadyState, Points: 1000, Ranks: 1, Search: cpx.PrefetchSearch, ExchangeEvery: 1},
				{Name: "cu2", A: 1, B: 2, Kind: cpx.SteadyState, Points: 1000, Ranks: 1, Search: cpx.PrefetchSearch, ExchangeEvery: 1},
			},
			DensitySteps:    1,
			RotationPerStep: 0.002,
			Scale:           cpx.ProductionScale(),
		}
		if _, err := sim.Run(cpx.RunConfig{Machine: cluster.SmallCluster()}); err != nil {
			b.Fatal(err)
		}
	}
}
