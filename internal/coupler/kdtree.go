// Package coupler implements CPX, the mini-coupler of the paper [13]:
// coupling units (CUs) that move boundary data between solver instances.
// Sliding-plane interactions (density-density) recompute the donor
// mapping every exchange because the rotor rows move relative to the
// stators; steady-state interactions (density-pressure) compute it once.
// Three search strategies reproduce the paper's progression: brute force,
// a k-d tree, and the tree with donor prefetching from the previous
// exchange — the optimisation that cut coupling overhead to <0.5% of
// run-time in the production coupler [31].
package coupler

import (
	"cmp"
	"slices"
	"sort"
)

// Point2 is a point on a coupling interface plane.
type Point2 struct {
	X, Y float64
	Idx  int // original index
}

func sqDist(a, b Point2) float64 {
	dx, dy := a.X-b.X, a.Y-b.Y
	return dx*dx + dy*dy
}

// KDTree is a 2-D k-d tree over interface points.
type KDTree struct {
	pts  []Point2 // stored in tree order
	axis []int8   // split axis per node
}

// BuildKDTree constructs a balanced tree (median splits). The input slice
// is not modified.
func BuildKDTree(points []Point2) *KDTree {
	pts := make([]Point2, len(points))
	copy(pts, points)
	t := &KDTree{pts: pts, axis: make([]int8, len(pts))}
	t.build(0, len(pts), 0)
	return t
}

// build arranges pts[lo:hi] into subtree form: the median element at the
// middle position, smaller coordinates left, larger right.
func (t *KDTree) build(lo, hi int, depth int8) {
	if hi-lo <= 1 {
		if hi-lo == 1 {
			t.axis[lo] = depth % 2
		}
		return
	}
	axis := depth % 2
	mid := (lo + hi) / 2
	// A strict order on (coordinate, Idx): Idx is unique per donor array,
	// so the sorted order, and with it the tree, is fully determined.
	slices.SortFunc(t.pts[lo:hi], func(a, b Point2) int {
		ca, cb := a.X, b.X
		if axis != 0 {
			ca, cb = a.Y, b.Y
		}
		if c := cmp.Compare(ca, cb); c != 0 {
			return c
		}
		return cmp.Compare(a.Idx, b.Idx)
	})
	t.axis[mid] = axis
	t.build(lo, mid, depth+1)
	t.build(mid+1, hi, depth+1)
}

// neighbour is one k-NN result.
type neighbour struct {
	pt   Point2
	dist float64 // squared distance
}

// KNearest returns the k nearest stored points to q, closest first.
func (t *KDTree) KNearest(q Point2, k int) []neighbour {
	if k <= 0 || len(t.pts) == 0 {
		return nil
	}
	if k > len(t.pts) {
		k = len(t.pts)
	}
	best := make([]neighbour, 0, k)
	var visit func(lo, hi int)
	worst := func() float64 {
		if len(best) < k {
			return 1e308
		}
		return best[len(best)-1].dist
	}
	insert := func(p Point2) {
		d := sqDist(p, q)
		if len(best) == k && d >= worst() {
			return
		}
		pos := sort.Search(len(best), func(i int) bool { return best[i].dist > d })
		best = append(best, neighbour{})
		copy(best[pos+1:], best[pos:])
		best[pos] = neighbour{p, d}
		if len(best) > k {
			best = best[:k]
		}
	}
	visit = func(lo, hi int) {
		if hi <= lo {
			return
		}
		mid := (lo + hi) / 2
		insert(t.pts[mid])
		var qc, mc float64
		if t.axis[mid] == 0 {
			qc, mc = q.X, t.pts[mid].X
		} else {
			qc, mc = q.Y, t.pts[mid].Y
		}
		near, farLo, farHi := 0, 0, 0
		if qc < mc {
			near = -1
			farLo, farHi = mid+1, hi
		} else {
			near = 1
			farLo, farHi = lo, mid
		}
		if near < 0 {
			visit(lo, mid)
		} else {
			visit(mid+1, hi)
		}
		d := qc - mc
		if d*d < worst() {
			visit(farLo, farHi)
		}
	}
	visit(0, len(t.pts))
	return best
}

// Nearest returns the single nearest point to q.
func (t *KDTree) Nearest(q Point2) Point2 {
	return t.KNearest(q, 1)[0].pt
}

// bruteKNearest is the reference O(n) search used by the brute-force CU
// mode and by tests.
func bruteKNearest(pts []Point2, q Point2, k int) []neighbour {
	if k > len(pts) {
		k = len(pts)
	}
	all := make([]neighbour, len(pts))
	for i, p := range pts {
		all[i] = neighbour{p, sqDist(p, q)}
	}
	sort.Slice(all, func(a, b int) bool {
		if all[a].dist != all[b].dist {
			return all[a].dist < all[b].dist
		}
		return all[a].pt.Idx < all[b].pt.Idx
	})
	return all[:k]
}
