// Package f32 holds the float32 vector kernels of the training hot
// path: an inner product, an in-place add, and the fused SGD update
// of a word2vec output row.
//
// On amd64 CPUs with AVX2 and FMA (checked once at init by CPUID and
// XGETBV, including OS support for the YMM register state) the
// kernels are Go assembly that processes eight floats per
// instruction. Everywhere else, and in builds with the purego tag,
// they are the plain scalar loops of DotScalar, AddScalar and
// UpdateScalar.
//
// Numerics: Add is exact on both paths. Dot and Update use fused
// multiply-adds on the assembly path, and Dot sums in a different
// order, so both can differ from the scalar loops in the last bits.
// Each path is deterministic: the same inputs give the same outputs.
package f32

// Dot returns the inner product of a and b. It panics when their
// lengths differ.
func Dot(a, b []float32) float32 {
	if len(a) != len(b) {
		panic("f32: Dot length mismatch")
	}
	if useAsm {
		return dotAsm(a, b)
	}
	return DotScalar(a, b)
}

// Add computes dst += src element-wise. It panics when the lengths
// differ.
func Add(dst, src []float32) {
	if len(dst) != len(src) {
		panic("f32: Add length mismatch")
	}
	if useAsm {
		addAsm(dst, src)
		return
	}
	AddScalar(dst, src)
}

// Update is the fused output-row step of word2vec SGD:
//
//	acc += g·out; out += g·h
//
// Each element of out is read before it is written, so acc gets the
// old value of out. It panics when the lengths differ.
func Update(acc, out, h []float32, g float32) {
	if len(acc) != len(out) || len(h) != len(out) {
		panic("f32: Update length mismatch")
	}
	if useAsm {
		updateAsm(acc, out, h, g)
		return
	}
	UpdateScalar(acc, out, h, g)
}

// DotScalar is the portable reference for Dot: one float32
// accumulator, summed in index order.
func DotScalar(a, b []float32) float32 {
	var f float32
	for i := range a {
		f += a[i] * b[i]
	}
	return f
}

// AddScalar is the portable reference for Add.
func AddScalar(dst, src []float32) {
	for i := range dst {
		dst[i] += src[i]
	}
}

// UpdateScalar is the portable reference for Update.
func UpdateScalar(acc, out, h []float32, g float32) {
	for i := range h {
		acc[i] += g * out[i]
		out[i] += g * h[i]
	}
}
