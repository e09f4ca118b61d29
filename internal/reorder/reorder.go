// Package reorder computes locality-improving vertex orderings over a CSR
// adjacency and exposes them as a kernel-level layout for the gradient SpMV.
//
// The orderings (degree-sorted, BFS, reverse Cuthill–McKee) are the standard
// bandwidth-reduction levers from the partitioning literature: after
// renumbering, the neighbors of consecutive rows land in a narrow index band,
// so the gather x[adj[i]] of the SpMV stays cache-resident instead of
// striding across the whole vector.
//
// Reordering here is strictly a kernel layout detail. A Layout permutes the
// CSR rows (and mirrors x into the permuted index space) but keeps every
// row's arc list in its ORIGINAL ascending-old-id order, so each output
// coordinate is accumulated in exactly the same floating-point order as the
// unreordered kernel. Combined with writing results back through the inverse
// permutation, a reordered solve is byte-identical to an unreordered one —
// assignments, goldens, and RNG streams never observe the permutation.
package reorder

import (
	"fmt"
	"sort"

	"mdbgp/internal/vecmath"
)

// Method selects a vertex ordering.
type Method int

const (
	// None keeps the ingest vertex order (the identity permutation).
	None Method = iota
	// Degree orders vertices by degree descending (id ascending on ties).
	// Hubs cluster at the front, which concentrates the hottest x entries.
	Degree
	// BFS orders vertices by breadth-first visit, components taken in
	// ascending order of their smallest vertex id, neighbors enqueued in
	// adjacency (ascending id) order.
	BFS
	// RCM is reverse Cuthill–McKee: BFS seeded per component at a
	// minimum-degree vertex with frontiers expanded in degree-ascending
	// order, then reversed. The classic bandwidth-reduction ordering.
	RCM
)

// Names lists the accepted method spellings in Parse order.
func Names() []string { return []string{"none", "degree", "bfs", "rcm"} }

// String returns the canonical spelling of the method.
func (m Method) String() string {
	switch m {
	case None:
		return "none"
	case Degree:
		return "degree"
	case BFS:
		return "bfs"
	case RCM:
		return "rcm"
	}
	return fmt.Sprintf("reorder.Method(%d)", int(m))
}

// Parse maps a user-facing name to a Method. The empty string means None.
func Parse(s string) (Method, error) {
	switch s {
	case "", "none":
		return None, nil
	case "degree":
		return Degree, nil
	case "bfs":
		return BFS, nil
	case "rcm":
		return RCM, nil
	}
	return None, fmt.Errorf("reorder: unknown method %q (want one of none, degree, bfs, rcm)", s)
}

// Permutation returns the ordering of method m over the CSR adjacency as a
// pair of mutually inverse maps: perm[newID] = oldID and inv[oldID] = newID.
// The adjacency must be sorted within each row (graph.Graph guarantees
// this); the result is then fully deterministic — ties are broken by vertex
// id, never by map iteration or scheduling.
func Permutation(offsets []int64, adj []int32, m Method) (perm, inv []int32) {
	n := len(offsets) - 1
	switch m {
	case Degree:
		perm = make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		sort.Slice(perm, func(a, b int) bool {
			da := offsets[perm[a]+1] - offsets[perm[a]]
			db := offsets[perm[b]+1] - offsets[perm[b]]
			if da != db {
				return da > db
			}
			return perm[a] < perm[b]
		})
	case BFS:
		perm = bfsOrder(offsets, adj, false)
	case RCM:
		perm = bfsOrder(offsets, adj, true)
		for i, j := 0, len(perm)-1; i < j; i, j = i+1, j-1 {
			perm[i], perm[j] = perm[j], perm[i]
		}
	default:
		perm = make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
	}
	inv = make([]int32, n)
	for i, v := range perm {
		inv[v] = int32(i)
	}
	return perm, inv
}

// bfsOrder runs a deterministic BFS over every component. With cuthill set,
// components are seeded at their minimum-degree vertex and frontiers are
// expanded in (degree asc, id asc) order — the Cuthill–McKee visit; without
// it, seeds are the smallest unvisited id and neighbors are enqueued in
// adjacency order.
func bfsOrder(offsets []int64, adj []int32, cuthill bool) []int32 {
	n := len(offsets) - 1
	deg := func(v int32) int64 { return offsets[v+1] - offsets[v] }
	seeds := make([]int32, n)
	for i := range seeds {
		seeds[i] = int32(i)
	}
	if cuthill {
		sort.Slice(seeds, func(a, b int) bool {
			da, db := deg(seeds[a]), deg(seeds[b])
			if da != db {
				return da < db
			}
			return seeds[a] < seeds[b]
		})
	}
	order := make([]int32, 0, n)
	visited := make([]bool, n)
	queue := make([]int32, 0, n)
	var nbr []int32
	for _, s := range seeds {
		if visited[s] {
			continue
		}
		visited[s] = true
		queue = append(queue[:0], s)
		for head := 0; head < len(queue); head++ {
			v := queue[head]
			order = append(order, v)
			row := adj[offsets[v]:offsets[v+1]]
			if !cuthill {
				for _, u := range row {
					if !visited[u] {
						visited[u] = true
						queue = append(queue, u)
					}
				}
				continue
			}
			nbr = nbr[:0]
			for _, u := range row {
				if !visited[u] {
					visited[u] = true
					nbr = append(nbr, u)
				}
			}
			sort.Slice(nbr, func(a, b int) bool {
				da, db := deg(nbr[a]), deg(nbr[b])
				if da != db {
					return da < db
				}
				return nbr[a] < nbr[b]
			})
			queue = append(queue, nbr...)
		}
	}
	return order
}

// Bandwidth returns the maximum |v - u| over all arcs of a CSR adjacency —
// the matrix bandwidth the orderings try to shrink. Zero for arcless graphs.
func Bandwidth(offsets []int64, adj []int32) int64 {
	n := len(offsets) - 1
	var bw int64
	for v := 0; v < n; v++ {
		for _, u := range adj[offsets[v]:offsets[v+1]] {
			d := int64(v) - int64(u)
			if d < 0 {
				d = -d
			}
			if d > bw {
				bw = d
			}
		}
	}
	return bw
}

// Layout is a reordered mirror of a weighted CSR adjacency, specialized for
// the masked gradient SpMV. Rows are stored in permutation order and arc
// targets are renumbered into the new index space so the gather runs over a
// bandwidth-reduced band — but each row keeps its ORIGINAL arc order, so
// per-coordinate sums associate exactly as in the unreordered kernel and
// SpMVMasked is bit-identical to vecmath.SpMVWeightedMaskedPool.
//
// A Layout owns scratch buffers and must not be used from concurrent SpMV
// calls (the GD loop issues one SpMV at a time, so this costs nothing).
// To share one layout across concurrent solves — the prep-cache case —
// hand each solve its own Clone: clones share the immutable permutation and
// permuted CSR but never the scratch.
type Layout struct {
	// Perm maps new id -> old id; Inv maps old id -> new id.
	Perm, Inv []int32

	// Immutable after NewLayout; shared between clones.
	offsets []int64
	adj     []int32
	ew      []float64

	// Per-instance scratch, allocated lazily on first use so cached layouts
	// (and fresh clones) cost nothing until they actually run an SpMV.
	xp []float64
	yp []float64
	fp []bool
}

// NewLayout builds the reordered mirror of the given weighted CSR adjacency
// (ew may be nil for unit weights). Method None yields a working identity
// layout, though callers normally skip the wrapper entirely in that case.
func NewLayout(offsets []int64, adj []int32, ew []float64, m Method) *Layout {
	perm, inv := Permutation(offsets, adj, m)
	n := len(offsets) - 1
	l := &Layout{
		Perm:    perm,
		Inv:     inv,
		offsets: make([]int64, n+1),
		adj:     make([]int32, len(adj)),
	}
	if ew != nil {
		l.ew = make([]float64, len(ew))
	}
	pos := int64(0)
	for nv := 0; nv < n; nv++ {
		ov := perm[nv]
		l.offsets[nv] = pos
		for i := offsets[ov]; i < offsets[ov+1]; i++ {
			l.adj[pos] = inv[adj[i]]
			if ew != nil {
				l.ew[pos] = ew[i]
			}
			pos++
		}
	}
	l.offsets[n] = pos
	return l
}

// N returns the number of vertices in the layout.
func (l *Layout) N() int { return len(l.Perm) }

// Arcs returns the number of arcs in the layout.
func (l *Layout) Arcs() int { return len(l.adj) }

// Bandwidth returns the arc bandwidth of the reordered adjacency.
func (l *Layout) Bandwidth() int64 { return Bandwidth(l.offsets, l.adj) }

// Weighted reports whether the layout carries per-arc edge weights (it was
// built with ew != nil). Injection paths use it to reject a cached layout
// whose weighting disagrees with the graph being solved.
func (l *Layout) Weighted() bool { return l.ew != nil }

// Clone returns a layout sharing the immutable permutation and permuted CSR
// with l but owning its own (lazily allocated) scratch. A cached layout is
// safe to hand to concurrent solves as long as each receives its own clone.
func (l *Layout) Clone() *Layout {
	return &Layout{
		Perm:    l.Perm,
		Inv:     l.Inv,
		offsets: l.offsets,
		adj:     l.adj,
		ew:      l.ew,
	}
}

// Bytes estimates the heap footprint of the layout's immutable parts — the
// permutation pair and the permuted CSR — for cache byte accounting. Scratch
// is excluded: cached layouts carry none, and clones pay for their own.
func (l *Layout) Bytes() int64 {
	b := int64(len(l.Perm))*4 + int64(len(l.Inv))*4 +
		int64(len(l.offsets))*8 + int64(len(l.adj))*4
	if l.ew != nil {
		b += int64(len(l.ew)) * 8
	}
	return b
}

// Matches reports whether the layout was built over a CSR of the same shape
// (vertex and arc counts). It is the cheap sanity check an injection path
// runs before trusting a cached layout; content equality is the caller's
// responsibility (prep caches key layouts by graph content hash).
func (l *Layout) Matches(offsets []int64, adj []int32) bool {
	return len(l.Perm) == len(offsets)-1 && len(l.adj) == len(adj)
}

// scratch ensures the float64 SpMV scratch is allocated.
func (l *Layout) scratch(masked bool) {
	n := len(l.Perm)
	if l.xp == nil {
		l.xp = make([]float64, n)
		l.yp = make([]float64, n)
	}
	if masked && l.fp == nil {
		l.fp = make([]bool, n)
	}
}

// SpMVMasked computes dst = A_w·x restricted to rows where fixed is false
// (fixed == nil computes every row), with x, dst and fixed indexed by
// ORIGINAL vertex ids. It mirrors x (and the mask) into the permuted index
// space, runs the register-blocked gather kernel over the bandwidth-reduced
// layout, and scatters results back through Perm, producing output
// bit-identical to vecmath.SpMVWeightedMaskedPool on the unreordered CSR at
// any worker count.
func (l *Layout) SpMVMasked(x, dst []float64, fixed []bool, p *vecmath.Pool) {
	n := len(l.Perm)
	l.scratch(fixed != nil)
	if fixed == nil {
		p.For(n, func(lo, hi int) {
			for nv := lo; nv < hi; nv++ {
				l.xp[nv] = x[l.Perm[nv]]
			}
		})
		vecmath.SpMVBlockedPool(l.offsets, l.adj, l.ew, l.xp, l.yp, nil, p)
		p.For(n, func(lo, hi int) {
			for nv := lo; nv < hi; nv++ {
				dst[l.Perm[nv]] = l.yp[nv]
			}
		})
		return
	}
	p.For(n, func(lo, hi int) {
		for nv := lo; nv < hi; nv++ {
			ov := l.Perm[nv]
			l.xp[nv] = x[ov]
			l.fp[nv] = fixed[ov]
		}
	})
	vecmath.SpMVBlockedPool(l.offsets, l.adj, l.ew, l.xp, l.yp, l.fp, p)
	p.For(n, func(lo, hi int) {
		for nv := lo; nv < hi; nv++ {
			if !l.fp[nv] {
				dst[l.Perm[nv]] = l.yp[nv]
			}
		}
	})
}
