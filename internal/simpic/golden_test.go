package simpic

import (
	"math"
	"runtime"
	"testing"

	"cpx/internal/mpi"
)

// goldenRun steps a 4-rank world with particle migration, field
// sub-cycling and a capped particle population, and returns each rank's
// state digest, clock bits and particle count.
func goldenRun(t *testing.T, steps int) (digests, clocks []uint64, parts []int) {
	t.Helper()
	const p = 4
	c := Config{Cells: 256, ParticlesPerCell: 20, Steps: steps, Seed: 5, FieldEvery: 2, VTherm: 0.05}
	digests = make([]uint64, p)
	parts = make([]int, p)
	st, err := mpi.Run(p, cfg(), func(comm *mpi.Comm) error {
		s, err := New(comm, c, ScaleOpts{MaxParticlesPerRank: 1000})
		if err != nil {
			return err
		}
		for i := 0; i < steps; i++ {
			s.Step()
		}
		digests[comm.Rank()] = s.StateDigest()
		parts[comm.Rank()] = len(s.px)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ck := range st.Clocks {
		clocks = append(clocks, math.Float64bits(ck))
	}
	return digests, clocks, parts
}

// TestGoldenMultiRankRun pins the exact bits of a migrating, sub-cycled
// run: the per-rank state digests and virtual clocks must not drift by a
// single bit under host-side optimisation of the stepping kernels.
func TestGoldenMultiRankRun(t *testing.T) {
	digests, clocks, parts := goldenRun(t, 40)
	migrated := false
	for _, n := range parts {
		if n != 1000 {
			migrated = true
		}
	}
	if !migrated {
		t.Fatal("golden run moved no particle between ranks; it would not cover migration")
	}
	wantDigests := []uint64{0x8219a77827db2725, 0x486879d0e5fe0cd4, 0xd2786ceed9c67d76, 0x6ea91a6e7450a9d7}
	wantClocks := []uint64{0x3f3669b79f562bc7, 0x3f3669b79f562bc7, 0x3f3669fd336ccb31, 0x3f366192d86479c4}
	for r := range digests {
		if digests[r] != wantDigests[r] {
			t.Errorf("rank %d: state digest %#x, want %#x", r, digests[r], wantDigests[r])
		}
		if clocks[r] != wantClocks[r] {
			t.Errorf("rank %d: clock %v (%#x), want %v (%#x)", r,
				math.Float64frombits(clocks[r]), clocks[r], math.Float64frombits(wantClocks[r]), wantClocks[r])
		}
	}
}

// stepAllocBytes returns the host bytes allocated by building the world
// of goldenRun and stepping it `steps` times.
func stepAllocBytes(t *testing.T, steps int) int64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	goldenRun(t, steps)
	runtime.ReadMemStats(&after)
	return int64(after.TotalAlloc - before.TotalAlloc)
}

// TestStepAllocationBudget gates steady-state allocation: the extra steps
// of a 4N-step run over an N-step run may allocate only the mpi payload
// clones and collective scratch, never per-step particle or field arrays.
func TestStepAllocationBudget(t *testing.T) {
	const ranks, n = 4, 40
	extra := stepAllocBytes(t, 4*n) - stepAllocBytes(t, n)
	perRankStep := extra / (ranks * 3 * n)
	t.Logf("extra steps allocate %d B per rank-step", perRankStep)
	const budget = 2048
	if perRankStep > budget {
		t.Errorf("stepping allocates %d B per rank-step, budget %d B", perRankStep, budget)
	}
}
