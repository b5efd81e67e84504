package mgcfd

import (
	"math"
	"runtime"
	"testing"

	"cpx/internal/mpi"
)

// goldenRun steps a 4-rank, 3-level world with capped per-rank boxes and
// returns each rank's state digest plus the residual and clock bits.
func goldenRun(t *testing.T, steps int) (digests, residuals, clocks []uint64) {
	t.Helper()
	const p = 4
	c := Config{MeshCells: 4096, Steps: steps, MGLevels: 3, Seed: 3}
	digests = make([]uint64, p)
	residuals = make([]uint64, p)
	st, err := mpi.Run(p, cfg(), func(comm *mpi.Comm) error {
		s, err := New(comm, c, ScaleOpts{MaxCellsPerRank: 64})
		if err != nil {
			return err
		}
		var res float64
		for i := 0; i < steps; i++ {
			res = s.Step()
		}
		digests[comm.Rank()] = s.StateDigest()
		residuals[comm.Rank()] = math.Float64bits(res)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, ck := range st.Clocks {
		clocks = append(clocks, math.Float64bits(ck))
	}
	return digests, residuals, clocks
}

// TestGoldenMultiRankRun pins the exact bits of a halo-exchanging
// multigrid run: per-rank state digests, the residual and the virtual
// clocks must not drift by a single bit under host-side optimisation of
// the flux, halo and multigrid kernels.
func TestGoldenMultiRankRun(t *testing.T) {
	digests, residuals, clocks := goldenRun(t, 6)
	wantDigests := []uint64{0xbe898292cbe5f689, 0x862e098727e46b67, 0xdca0b18d22e0c118, 0xd9e3e52e6faefe98}
	wantResidual := uint64(0x4028286ed84871f3)
	wantClocks := []uint64{0x3f787ccc95e25268, 0x3f787ccc95e25268, 0x3f787ccc95e25268, 0x3f787ccc95e25268}
	for r := range digests {
		if digests[r] != wantDigests[r] {
			t.Errorf("rank %d: state digest %#x, want %#x", r, digests[r], wantDigests[r])
		}
		if residuals[r] != wantResidual {
			t.Errorf("rank %d: residual %v (%#x), want %v (%#x)", r,
				math.Float64frombits(residuals[r]), residuals[r], math.Float64frombits(wantResidual), wantResidual)
		}
		if clocks[r] != wantClocks[r] {
			t.Errorf("rank %d: clock %v (%#x), want %v (%#x)", r,
				math.Float64frombits(clocks[r]), clocks[r], math.Float64frombits(wantClocks[r]), wantClocks[r])
		}
	}
}

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

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

// haloPayloadBytes returns the float payload bytes the ranks of
// goldenRun's world send per step, summed over ranks: the RK stages
// exchange the fine level and every coarse level exchanges once. The
// runtime copies each payload on send, so this much allocation per step
// belongs to the mpi layer, not to the solver.
func haloPayloadBytes(t *testing.T) int64 {
	t.Helper()
	perRank := make([]int64, 4)
	c := Config{MeshCells: 4096, Steps: 1, MGLevels: 3, Seed: 3}.withDefaults()
	_, err := mpi.Run(len(perRank), cfg(), func(comm *mpi.Comm) error {
		s, err := New(comm, c, ScaleOpts{MaxCellsPerRank: 64})
		if err != nil {
			return err
		}
		for li, l := range s.levels {
			exchanges := 1
			if li == 0 {
				exchanges = c.RKStages
			}
			for _, f := range l.faces {
				perRank[comm.Rank()] += int64(exchanges * len(f.nodeIdx) * NVAR * 8)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	total := int64(0)
	for _, b := range perRank {
		total += b
	}
	return total
}

// TestStepAllocationBudget gates steady-state allocation: beyond the mpi
// runtime's copies of the halo payloads, the extra steps of a 4N-step run
// over an N-step run may allocate only a small per-rank-step budget
// (collective scratch), never per-step solver arrays.
func TestStepAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const ranks, n = 4, 10
	extra := stepAllocBytes(t, 4*n) - stepAllocBytes(t, n)
	beyondPayload := (extra - 3*n*haloPayloadBytes(t)) / (ranks * 3 * n)
	t.Logf("extra steps allocate %d B per rank-step beyond the halo payload copies", beyondPayload)
	const budget = 1024
	if beyondPayload > budget {
		t.Errorf("stepping allocates %d B per rank-step beyond the halo payload copies, budget %d B", beyondPayload, budget)
	}
}
