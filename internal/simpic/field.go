package simpic

import (
	"fmt"

	"cpx/internal/cluster"
	"cpx/internal/mpi"
)

// The 1-D Poisson solve phi'' = -rho (eps0 = 1) is discretised on grid
// nodes 0..N with Dirichlet walls phi[0] = phi[N] = 0, giving the
// tridiagonal system (-1, 2, -1) phi = dx^2 rho at the interior nodes.
//
// In parallel the domain is sliced into contiguous node ranges and solved
// directly with a substructuring method (Wang's algorithm family): every
// rank eliminates its interior unknowns with a local Thomas solve plus
// the segment's two harmonic responses (solved once at set-up), the
// interface unknowns (first node of each rank r > 0) form a reduced
// tridiagonal system of size P-1 solved by distributed parallel cyclic
// reduction (log2 P rounds of small neighbour exchanges), and interiors
// are recovered by back-substitution. The log-depth exchange chain plus
// the per-step reductions are the field solver's inherent scaling limit.

// segment is the constant-coefficient (-1, 2, -1) system of one rank's
// interior nodes, factored once: the forward sweep of the Thomas
// algorithm depends only on the matrix, so the modified super-diagonal
// cp and the pivots are computed at set-up and every solve runs just the
// right-hand-side sweeps. Every segment has at least one node.
type segment struct {
	cp, piv []float64
}

const segSub, segDiag, segSuper = -1.0, 2.0, -1.0

func newSegment(n int) segment {
	sg := segment{cp: make([]float64, n), piv: make([]float64, n)}
	sg.cp[0] = segSuper / segDiag
	sg.piv[0] = segDiag
	for i := 1; i < n; i++ {
		m := segDiag - segSub*sg.cp[i-1]
		if i < n-1 {
			sg.cp[i] = segSuper / m
		}
		sg.piv[i] = m
	}
	return sg
}

// solve writes the solution for the right-hand side d into x; both have
// the segment's size.
func (sg segment) solve(d, x []float64) {
	n := len(sg.piv)
	x[0] = d[0] / sg.piv[0]
	for i := 1; i < n; i++ {
		x[i] = (d[i] - segSub*x[i-1]) / sg.piv[i]
	}
	for i := n - 2; i >= 0; i-- {
		x[i] -= sg.cp[i] * x[i+1]
	}
}

// fieldSolver holds the per-rank decomposition of the Poisson problem.
type fieldSolver struct {
	comm *mpi.Comm
	n    int // global cells; nodes 0..n
	lo   int // first owned node (wall nodes never owned)
	hi   int // one past last owned node
	// Interface bookkeeping: rank r > 0 owns the interface node lo; its
	// interior segment is [segLo, hi).
	segLo int
	// cellScale converts simulated per-rank field work to true work.
	cellScale float64
	tag       int

	// seg is the factored interior system; yL and yR are its responses to
	// a unit value at the left and right ends, which depend only on the
	// segment length and so are solved once.
	seg    segment
	yL, yR []float64
	// Per-solve scratch: the particular solution y0 and the returned
	// potential phi (held by the caller between sub-cycled solves).
	y0, phi []float64
}

// newFieldSolver sets up the node ownership for the global problem of n
// cells across the communicator. Each rank must own at least 2 nodes.
func newFieldSolver(c *mpi.Comm, n int, cellScale float64, tag int) (*fieldSolver, error) {
	p, r := c.Size(), c.Rank()
	if n < 2*p {
		return nil, fmt.Errorf("simpic: %d cells cannot be split over %d ranks (need >= 2 per rank)", n, p)
	}
	lo := r * n / p
	hi := (r + 1) * n / p
	if r == 0 {
		lo = 1 // node 0 is the wall
	}
	if r == p-1 {
		hi = n // node n is the wall; own up to n-1
	}
	segLo := lo
	if r > 0 {
		segLo = lo + 1 // node lo is this rank's interface unknown
	}
	m := hi - segLo
	fs := &fieldSolver{comm: c, n: n, lo: lo, hi: hi, segLo: segLo, cellScale: cellScale, tag: tag,
		seg: newSegment(m), yL: make([]float64, m), yR: make([]float64, m),
		y0: make([]float64, m), phi: make([]float64, hi-lo)}
	unit := make([]float64, m)
	unit[0] = 1
	fs.seg.solve(unit, fs.yL)
	unit[0], unit[m-1] = 0, 1
	fs.seg.solve(unit, fs.yR)
	return fs, nil
}

func (fs *fieldSolver) ownedNodes() int { return fs.hi - fs.lo }

// pcr solves the distributed interface tridiagonal system by parallel
// cyclic reduction. Ranks 1..p-1 each own one equation
// a*v_{r-1} + b*v_r + c*v_{r+1} = d; every round doubles the coupling
// stride with one 4-double exchange per direction, and out-of-range
// neighbours act as identity equations. Returns v_r. Must be called by
// exactly the ranks 1..p-1.
func (fs *fieldSolver) pcr(a, b, c, d float64) float64 {
	p, r := fs.comm.Size(), fs.comm.Rank()
	np := p - 1
	for s := 1; s < np; s *= 2 {
		lo, hi := r-s, r+s
		eq := []float64{a, b, c, d}
		if lo >= 1 {
			fs.comm.Send(lo, fs.tag+2, eq)
		}
		if hi <= p-1 {
			fs.comm.Send(hi, fs.tag+2, eq)
		}
		la, lb, lc, ld := 0.0, 1.0, 0.0, 0.0
		ua, ub, uc, ud := 0.0, 1.0, 0.0, 0.0
		if lo >= 1 {
			e, _, _ := fs.comm.Recv(lo, fs.tag+2)
			la, lb, lc, ld = e[0], e[1], e[2], e[3]
		}
		if hi <= p-1 {
			e, _, _ := fs.comm.Recv(hi, fs.tag+2)
			ua, ub, uc, ud = e[0], e[1], e[2], e[3]
		}
		alpha := a / lb
		gamma := c / ub
		a, c = -alpha*la, -gamma*uc
		b = b - alpha*lc - gamma*ua
		d = d - alpha*ld - gamma*ud
		fs.comm.Compute(cluster.Work{Flops: 16, Bytes: 64})
	}
	return d / b
}

// Solve computes phi at the owned nodes from the owned right-hand side
// f[i] = dx^2 * rho[i] (indexed from fs.lo). Returns phi over the owned
// range plus the two ghost nodes (phi[lo-1] and phi[hi]) needed for the
// E-field stencil, as (phiOwned, ghostLeft, ghostRight). phiOwned is the
// solver's own buffer, overwritten by the next Solve.
//
//perf:hotpath
func (fs *fieldSolver) Solve(f []float64) (phi []float64, ghostL, ghostR float64) {
	if len(f) != fs.ownedNodes() {
		panic(fmt.Sprintf("simpic: Solve rhs length %d, want %d", len(f), fs.ownedNodes())) //lint:allow hotalloc cold misuse panic
	}
	p, r := fs.comm.Size(), fs.comm.Rank()

	// Local segment solve: the particular solution, combined below with
	// the two harmonic responses factored at set-up. The charge still
	// covers all three solves, as a real solver repeats them per step.
	m := fs.hi - fs.segLo
	y0, yL, yR := fs.y0, fs.yL, fs.yR
	fs.seg.solve(f[fs.segLo-fs.lo:], y0)
	fs.comm.Compute(cluster.Work{Flops: 6 * float64(m) * fs.cellScale, Bytes: 30 * float64(m) * fs.cellScale})

	// The interface unknowns v_i (i = 1..p-1, owned by rank i at node
	// lo(i)) form a strictly diagonally dominant tridiagonal system.
	// Each rank assembles its own equation from the left neighbour's
	// segment responses (one neighbour message), then the system is
	// solved with distributed parallel cyclic reduction: ceil(log2(p-1))
	// rounds of stride-doubling 4-double exchanges. This is the
	// logarithmic-depth substructuring that keeps the field solve from
	// becoming an O(p) serial fraction.
	var uL, uR float64
	if p > 1 {
		// Segment responses travel one rank to the right.
		if r < p-1 {
			resp := [6]float64{y0[0], y0[m-1], yL[0], yL[m-1], yR[0], yR[m-1]}
			fs.comm.Send(r+1, fs.tag+1, resp[:])
		}
		if r > 0 {
			left, _, _ := fs.comm.Recv(r-1, fs.tag+1)
			// Equation: a*v_{r-1} + b*v_r + c*v_{r+1} = d.
			a := -left[3]            // left segment's yL response at its last node
			b := 2 - left[5] - yL[0] // minus yR(left, last) and own yL(first)
			c := -yR[0]
			dRHS := f[0] + left[1] + y0[0]
			if r == 1 {
				a = 0 // previous boundary is the wall
			}
			if r == p-1 {
				c = 0 // next boundary is the wall
			}
			uL = fs.pcr(a, b, c, dRHS)
		}
		// Each rank needs v_{r+1} too (the right ghost of its segment).
		if r > 0 {
			v := [1]float64{uL}
			fs.comm.Send(r-1, fs.tag+3, v[:])
		}
		if r < p-1 {
			d, _, _ := fs.comm.Recv(r+1, fs.tag+3)
			uR = d[0]
		}
	}
	phi = fs.phi
	if r > 0 {
		phi[0] = uL // the owned interface node
	}
	for i := 0; i < m; i++ {
		phi[fs.segLo-fs.lo+i] = y0[i] + uL*yL[i] + uR*yR[i]
	}
	fs.comm.Compute(cluster.Work{Flops: 2 * float64(m) * fs.cellScale, Bytes: 12 * float64(m) * fs.cellScale})

	// Ghosts for the E-field stencil. The right ghost (node hi) is the
	// next rank's interface unknown, already known from the reduced
	// solve; the left ghost (node lo-1) is the left neighbour's last
	// owned node and travels by one neighbour message.
	ghostL, ghostR = 0.0, 0.0 // walls by default
	if r < p-1 {
		ghostR = uR
		last := [1]float64{phi[len(phi)-1]}
		fs.comm.Send(r+1, fs.tag, last[:])
	}
	if r > 0 {
		d, _, _ := fs.comm.Recv(r-1, fs.tag)
		ghostL = d[0]
	}
	return phi, ghostL, ghostR
}
