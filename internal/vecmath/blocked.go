package vecmath

import "unsafe"

// blockRows is the register-blocking factor of SpMVBlockedPool: rows are
// processed in groups of four with one independent accumulator chain each.
// A single row's gather is latency-bound on the serial float64 add chain
// (one add per arc); four interleaved chains keep the load ports busy
// instead. Groups start at multiples of four relative to row 0 and Pool
// chunks are 4096-aligned, so the grouping — and therefore the performance
// profile — is independent of the worker count, while each row's sum order
// never changes at all.
const blockRows = 4

// spmvRowUnsafe continues accumulating a CSR row over arcs [b, e) starting
// from s, with unchecked loads, preserving the left-to-right arc order of
// the checked kernels (the caller passes the running sum so a row split
// across the blocked loop and its tail keeps one association).
func spmvRowUnsafe(ab, eb, xb unsafe.Pointer, b, e int64, s float64) float64 {
	if eb == nil {
		for i := b; i < e; i++ {
			u := *(*int32)(unsafe.Add(ab, uintptr(i)*4))
			s += *(*float64)(unsafe.Add(xb, uintptr(u)*8))
		}
	} else {
		for i := b; i < e; i++ {
			u := *(*int32)(unsafe.Add(ab, uintptr(i)*4))
			s += *(*float64)(unsafe.Add(eb, uintptr(i)*8)) *
				*(*float64)(unsafe.Add(xb, uintptr(u)*8))
		}
	}
	return s
}

// SpMVBlockedPool computes dst = A_w·x over a raw weighted CSR adjacency
// exactly like SpMVWeightedMaskedPool — same masking rules, same per-row
// left-to-right summation order, bit-identical output at any worker count —
// but register-blocked: rows run in interleaved groups of four, and the
// gather x[adj[i]] uses unchecked loads. It is the speed-of-light variant
// of the gradient kernel for reordered layouts, and is what
// internal/reorder's Layout drives.
//
// Unlike the checked kernels it REQUIRES the CSR validity invariant: every
// adj[i] must lie in [0, len(offsets)-1). graph.Graph construction and
// reorder.NewLayout guarantee this; callers handing in hand-built arrays
// must validate them first (graph.FromCSR does). Slice-length mismatches
// are rejected up front.
func SpMVBlockedPool(offsets []int64, adj []int32, ew []float64, x, dst []float64, fixed []bool, p *Pool) {
	n := len(offsets) - 1
	if n <= 0 {
		return
	}
	if len(x) != n || len(dst) != n {
		panic("vecmath: SpMVBlockedPool vector/offset length mismatch")
	}
	if int64(len(adj)) != offsets[n] {
		panic("vecmath: SpMVBlockedPool adjacency/offset length mismatch")
	}
	if ew != nil && len(ew) != len(adj) {
		panic("vecmath: SpMVBlockedPool edge-weight length mismatch")
	}
	if fixed != nil && len(fixed) != n {
		panic("vecmath: SpMVBlockedPool mask length mismatch")
	}
	if len(adj) == 0 {
		p.For(n, func(lo, hi int) {
			for v := lo; v < hi; v++ {
				if fixed == nil || !fixed[v] {
					dst[v] = 0
				}
			}
		})
		return
	}
	xb := unsafe.Pointer(&x[0])
	ab := unsafe.Pointer(&adj[0])
	var eb unsafe.Pointer
	if ew != nil {
		eb = unsafe.Pointer(&ew[0])
	}
	p.For(n, func(lo, hi int) {
		v := lo
		for ; v+blockRows <= hi; v += blockRows {
			if fixed != nil && (fixed[v] || fixed[v+1] || fixed[v+2] || fixed[v+3]) {
				for w := v; w < v+blockRows; w++ {
					if !fixed[w] {
						dst[w] = spmvRowUnsafe(ab, eb, xb, offsets[w], offsets[w+1], 0)
					}
				}
				continue
			}
			i0, e0 := offsets[v], offsets[v+1]
			i1, e1 := offsets[v+1], offsets[v+2]
			i2, e2 := offsets[v+2], offsets[v+3]
			i3, e3 := offsets[v+3], offsets[v+4]
			m := e0 - i0
			if c := e1 - i1; c < m {
				m = c
			}
			if c := e2 - i2; c < m {
				m = c
			}
			if c := e3 - i3; c < m {
				m = c
			}
			var s0, s1, s2, s3 float64
			if eb == nil {
				for k := int64(0); k < m; k++ {
					u0 := *(*int32)(unsafe.Add(ab, uintptr(i0+k)*4))
					u1 := *(*int32)(unsafe.Add(ab, uintptr(i1+k)*4))
					u2 := *(*int32)(unsafe.Add(ab, uintptr(i2+k)*4))
					u3 := *(*int32)(unsafe.Add(ab, uintptr(i3+k)*4))
					s0 += *(*float64)(unsafe.Add(xb, uintptr(u0)*8))
					s1 += *(*float64)(unsafe.Add(xb, uintptr(u1)*8))
					s2 += *(*float64)(unsafe.Add(xb, uintptr(u2)*8))
					s3 += *(*float64)(unsafe.Add(xb, uintptr(u3)*8))
				}
			} else {
				for k := int64(0); k < m; k++ {
					u0 := *(*int32)(unsafe.Add(ab, uintptr(i0+k)*4))
					u1 := *(*int32)(unsafe.Add(ab, uintptr(i1+k)*4))
					u2 := *(*int32)(unsafe.Add(ab, uintptr(i2+k)*4))
					u3 := *(*int32)(unsafe.Add(ab, uintptr(i3+k)*4))
					s0 += *(*float64)(unsafe.Add(eb, uintptr(i0+k)*8)) * *(*float64)(unsafe.Add(xb, uintptr(u0)*8))
					s1 += *(*float64)(unsafe.Add(eb, uintptr(i1+k)*8)) * *(*float64)(unsafe.Add(xb, uintptr(u1)*8))
					s2 += *(*float64)(unsafe.Add(eb, uintptr(i2+k)*8)) * *(*float64)(unsafe.Add(xb, uintptr(u2)*8))
					s3 += *(*float64)(unsafe.Add(eb, uintptr(i3+k)*8)) * *(*float64)(unsafe.Add(xb, uintptr(u3)*8))
				}
			}
			dst[v] = spmvRowUnsafe(ab, eb, xb, i0+m, e0, s0)
			dst[v+1] = spmvRowUnsafe(ab, eb, xb, i1+m, e1, s1)
			dst[v+2] = spmvRowUnsafe(ab, eb, xb, i2+m, e2, s2)
			dst[v+3] = spmvRowUnsafe(ab, eb, xb, i3+m, e3, s3)
		}
		for ; v < hi; v++ {
			if fixed == nil || !fixed[v] {
				dst[v] = spmvRowUnsafe(ab, eb, xb, offsets[v], offsets[v+1], 0)
			}
		}
	})
}

// SpMVRowsPool computes dst[k] = (A_w·x)_{rows[k]} for every listed row of
// a raw weighted CSR adjacency (ew == nil means unit weights): the gradient
// of GD's active set, where rows are the free vertices and dst is compacted
// alongside them, so fixed rows cost nothing — not even a mask test. Each
// row sums its arcs left to right exactly like SpMVWeightedMaskedPool, so
// dst[k] is bit-identical to that kernel's output at row rows[k], at any
// worker count. Rows are not register-blocked: in ingest order neighboring
// free rows have unrelated degrees, so four-row groups would mostly run
// their tails serially anyway.
//
// Like SpMVBlockedPool it gathers with unchecked loads and REQUIRES the CSR
// validity invariant (every adj[i] in [0, len(x))) and rows within
// [0, len(offsets)-1); slice-length mismatches are rejected up front.
func SpMVRowsPool(offsets []int64, adj []int32, ew []float64, x []float64, rows []int32, dst []float64, p *Pool) {
	n := len(offsets) - 1
	if len(x) != n || len(dst) < len(rows) || int64(len(adj)) != offsets[n] {
		panic("vecmath: SpMVRowsPool vector/offset length mismatch")
	}
	if ew != nil && len(ew) != len(adj) {
		panic("vecmath: SpMVRowsPool edge-weight length mismatch")
	}
	if len(adj) == 0 {
		clear(dst[:len(rows)])
		return
	}
	xb := unsafe.Pointer(&x[0])
	ab := unsafe.Pointer(&adj[0])
	var eb unsafe.Pointer
	if ew != nil {
		eb = unsafe.Pointer(&ew[0])
	}
	p.For(len(rows), func(lo, hi int) {
		for k, v := range rows[lo:hi] {
			dst[lo+k] = spmvRowUnsafe(ab, eb, xb, offsets[v], offsets[v+1], 0)
		}
	})
}
