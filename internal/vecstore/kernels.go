package vecstore

// Blocked similarity kernels, which produce every reported score (HNSW
// routes on internal/f32 and rescores its results here). All kernels
// accumulate in float64 and visit each row's elements in index order,
// so a blocked scan produces bit-identical scores to the
// one-row-at-a-time loops the seed used (float64 addition is
// reordered across rows, never within one). Blocking by four rows
// amortizes loop overhead and lets one pass over the query serve four
// streams of consecutive store memory.

// dotF64 returns the float64-accumulated inner product of two
// float32 vectors.
func dotF64(a, b []float32) float64 {
	var s float64
	_ = b[len(a)-1]
	for i, x := range a {
		s += float64(x) * float64(b[i])
	}
	return s
}

// dot4F64 computes the inner products of q against four rows in one
// pass. Each accumulator sees its row's terms in the same order as
// dotF64.
func dot4F64(q, r0, r1, r2, r3 []float32) (s0, s1, s2, s3 float64) {
	n := len(q)
	_, _, _, _ = r0[n-1], r1[n-1], r2[n-1], r3[n-1]
	for i, x := range q {
		xf := float64(x)
		s0 += xf * float64(r0[i])
		s1 += xf * float64(r1[i])
		s2 += xf * float64(r2[i])
		s3 += xf * float64(r3[i])
	}
	return
}

// sqDistF64 returns the float64-accumulated squared Euclidean
// distance between two float32 vectors.
func sqDistF64(a, b []float32) float64 {
	var s float64
	_ = b[len(a)-1]
	for i, x := range a {
		d := float64(x) - float64(b[i])
		s += d * d
	}
	return s
}

// sqDist4F64 computes squared distances of q against four rows in one
// pass, with per-row accumulation order identical to sqDistF64.
func sqDist4F64(q, r0, r1, r2, r3 []float32) (s0, s1, s2, s3 float64) {
	n := len(q)
	_, _, _, _ = r0[n-1], r1[n-1], r2[n-1], r3[n-1]
	for i, x := range q {
		xf := float64(x)
		d0 := xf - float64(r0[i])
		d1 := xf - float64(r1[i])
		d2 := xf - float64(r2[i])
		d3 := xf - float64(r3[i])
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	return
}
