// Package reorder computes a degree-sorted vertex ordering over a CSR
// adjacency and exposes it as a kernel-level layout for the gradient SpMV.
//
// Degree sorting is the classic locality lever from the partitioning
// literature: hubs cluster at the front of the renumbered index space, which
// concentrates the hottest entries of x for the SpMV gather.
//
// A Layout is a byte-identical override that is off by default, kept for the
// benchmark's reorder.* probes. Measured end to end on the 573k-edge bench
// graph it is slower than the default active-set loop: the layout mirrors x
// and the fixed mask and scatters back over all n vertices every iteration,
// while the default loop runs the SpMV over the free rows only.
//
// A Layout permutes the CSR rows (and mirrors x into the permuted index
// space) but keeps every row's arc list in its ORIGINAL ascending-old-id
// order, so each output coordinate is accumulated in exactly the same
// floating-point order as the unreordered kernel. Combined with writing
// results back through the inverse permutation, a reordered solve is
// byte-identical to an unreordered one — assignments, goldens, and RNG
// streams never observe the permutation.
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
)

// String returns the canonical spelling of the method.
func (m Method) String() string {
	switch m {
	case None:
		return "none"
	case Degree:
		return "degree"
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
	}
	return None, fmt.Errorf("reorder: unknown method %q (want none or degree)", s)
}

// Permutation returns the ordering of method m over the CSR offsets as a
// pair of mutually inverse maps: perm[newID] = oldID and inv[oldID] = newID.
// The result is fully deterministic — ties are broken by vertex id, never by
// scheduling.
func Permutation(offsets []int64, m Method) (perm, inv []int32) {
	n := len(offsets) - 1
	perm = make([]int32, n)
	for i := range perm {
		perm[i] = int32(i)
	}
	if m == Degree {
		sort.Slice(perm, func(a, b int) bool {
			da := offsets[perm[a]+1] - offsets[perm[a]]
			db := offsets[perm[b]+1] - offsets[perm[b]]
			if da != db {
				return da > db
			}
			return perm[a] < perm[b]
		})
	}
	inv = make([]int32, n)
	for i, v := range perm {
		inv[v] = int32(i)
	}
	return perm, inv
}

// Layout is a reordered mirror of a weighted CSR adjacency, specialized for
// the masked gradient SpMV. Rows are stored in permutation order and arc
// targets are renumbered into the new index space — but each row keeps its
// ORIGINAL arc order, so per-coordinate sums associate exactly as in the
// unreordered kernel and SpMVMasked is bit-identical to
// vecmath.SpMVWeightedMaskedPool.
//
// A Layout owns scratch buffers and must not be used from concurrent SpMV
// calls (the GD loop issues one SpMV at a time, so this costs nothing).
type Layout struct {
	// Perm maps new id -> old id; Inv maps old id -> new id.
	Perm, Inv []int32

	offsets []int64
	adj     []int32
	ew      []float64

	// Scratch, allocated lazily on the first SpMV.
	xp []float64
	yp []float64
	fp []bool
}

// NewLayout builds the reordered mirror of the given weighted CSR adjacency
// (ew may be nil for unit weights). Method None yields a working identity
// layout, though callers normally skip the wrapper entirely in that case.
func NewLayout(offsets []int64, adj []int32, ew []float64, m Method) *Layout {
	perm, inv := Permutation(offsets, m)
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
// space, runs the register-blocked gather kernel over the reordered layout,
// and scatters results back through Perm, producing output bit-identical to
// vecmath.SpMVWeightedMaskedPool on the unreordered CSR at any worker count.
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
