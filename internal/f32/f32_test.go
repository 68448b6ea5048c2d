package f32

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"

	"v2v/internal/xrand"
)

// testLengths covers every tail shape of the 16-, 8- and 1-float
// steps plus the dimensions training uses.
func testLengths() []int {
	var ns []int
	for n := 0; n <= 40; n++ {
		ns = append(ns, n)
	}
	return append(ns, 64, 100, 128, 301)
}

func randVec(rng *xrand.RNG, n int) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	return v
}

// close32 reports whether got is within a relative tolerance of want,
// measured against scale (the magnitude of the terms that were
// summed), so cancellation in a dot product does not inflate the
// error bound.
func close32(got, want, scale float32) bool {
	return math.Abs(float64(got)-float64(want)) <= 1e-5*float64(scale)
}

// requireAsm skips when this build or CPU runs the scalar kernels.
func requireAsm(t *testing.T) {
	t.Helper()
	if !asmBuilt {
		t.Skip("no assembly kernels in this build (non-amd64 or purego)")
	}
	if !useAsm {
		t.Skip("CPU lacks AVX2/FMA")
	}
}

// TestAsmMatchesScalar compares the assembly kernels with the scalar
// references for every length 0..40 and the training dimensions, on
// sub-slices starting 0..7 floats past an allocation so unaligned
// loads and stores are covered. Add is exact; Dot and Update may
// differ in the last bits (FMA, lane order).
func TestAsmMatchesScalar(t *testing.T) {
	requireAsm(t)
	rng := xrand.New(1)
	for _, n := range testLengths() {
		for off := 0; off < 8; off++ {
			a := randVec(rng, n+8)[off : off+n]
			b := randVec(rng, n+8)[off : off+n]
			var scale float32
			for i := range a {
				scale += float32(math.Abs(float64(a[i] * b[i])))
			}
			if got, want := dotAsm(a, b), DotScalar(a, b); !close32(got, want, scale) {
				t.Fatalf("Dot n=%d off=%d: asm %v, scalar %v", n, off, got, want)
			}
			if got, want := Dot(a, b), dotAsm(a, b); got != want {
				t.Fatalf("Dot n=%d off=%d: dispatch %v, asm %v", n, off, got, want)
			}

			dst1 := slices.Clone(a)
			dst2 := slices.Clone(a)
			addAsm(dst1, b)
			AddScalar(dst2, b)
			if !slices.Equal(dst1, dst2) {
				t.Fatalf("Add n=%d off=%d: asm %v, scalar %v", n, off, dst1, dst2)
			}

			h := randVec(rng, n)
			const g = float32(0.37)
			acc1, out1 := slices.Clone(a), slices.Clone(b)
			acc2, out2 := slices.Clone(a), slices.Clone(b)
			updateAsm(acc1, out1, h, g)
			UpdateScalar(acc2, out2, h, g)
			for i := range acc1 {
				accScale := abs32(a[i]) + abs32(g*b[i])
				outScale := abs32(b[i]) + abs32(g*h[i])
				if !close32(acc1[i], acc2[i], accScale) || !close32(out1[i], out2[i], outScale) {
					t.Fatalf("Update n=%d off=%d i=%d: asm (%v, %v), scalar (%v, %v)",
						n, off, i, acc1[i], out1[i], acc2[i], out2[i])
				}
			}
		}
	}
}

func abs32(x float32) float32 { return float32(math.Abs(float64(x))) }

// TestUpdateReadsOutBeforeWrite: acc must accumulate the old out, not
// the updated one. The inputs are small dyadic values, so every
// product and sum is exact and both paths must agree bit for bit.
func TestUpdateReadsOutBeforeWrite(t *testing.T) {
	kernels := map[string]func(acc, out, h []float32, g float32){
		"dispatch": Update,
		"scalar":   UpdateScalar,
	}
	if asmBuilt && useAsm {
		kernels["asm"] = updateAsm
	}
	for name, update := range kernels {
		for _, n := range testLengths() {
			acc := make([]float32, n)
			out := make([]float32, n)
			h := make([]float32, n)
			for i := range out {
				acc[i] = float32(i % 5)
				out[i] = float32(i%7 + 1)
				h[i] = float32(i%3) - 1
			}
			old := slices.Clone(out)
			const g = 0.5
			update(acc, out, h, g)
			for i := range out {
				if want := float32(i%5) + g*old[i]; acc[i] != want {
					t.Fatalf("%s n=%d: acc[%d] = %v, want %v (old out)", name, n, i, acc[i], want)
				}
				if want := old[i] + g*h[i]; out[i] != want {
					t.Fatalf("%s n=%d: out[%d] = %v, want %v", name, n, i, out[i], want)
				}
			}
		}
	}
}

// TestAsmSelectedOnAVX2FMA fails when the CPU advertises AVX2 and FMA
// but the kernels fell back to the scalar loops.
func TestAsmSelectedOnAVX2FMA(t *testing.T) {
	if !asmBuilt {
		t.Skip("no assembly kernels in this build (non-amd64 or purego)")
	}
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		t.Skipf("no /proc/cpuinfo: %v", err)
	}
	defer f.Close()
	flags := map[string]bool{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		key, val, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(key) == "flags" {
			for _, fl := range strings.Fields(val) {
				flags[fl] = true
			}
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !flags["avx2"] || !flags["fma"] {
		t.Skip("/proc/cpuinfo does not list avx2 and fma")
	}
	if !useAsm {
		t.Fatal("CPU lists avx2 and fma but the scalar kernels were selected")
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	for name, call := range map[string]func(){
		"Dot":    func() { Dot(make([]float32, 3), make([]float32, 4)) },
		"Add":    func() { Add(make([]float32, 3), make([]float32, 2)) },
		"Update": func() { Update(make([]float32, 3), make([]float32, 3), make([]float32, 2), 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted mismatched lengths", name)
				}
			}()
			call()
		}()
	}
}

var sinkF32 float32

// benchDims are the embedding widths the benchmarks cover: the
// serving store's 64, the paper pipeline's 100, and 128.
var benchDims = []int{64, 100, 128}

// benchPaths runs f once with the dispatching kernels and once with
// the scalar references, at every benchmark dimension.
func benchPaths(b *testing.B, f func(b *testing.B, dim int, scalar bool)) {
	for _, dim := range benchDims {
		for _, scalar := range []bool{false, true} {
			path := "dispatch"
			if scalar {
				path = "scalar"
			}
			b.Run(fmt.Sprintf("%s/dim=%d", path, dim), func(b *testing.B) { f(b, dim, scalar) })
		}
	}
}

func BenchmarkF32Dot(b *testing.B) {
	benchPaths(b, func(b *testing.B, dim int, scalar bool) {
		rng := xrand.New(2)
		x, y := randVec(rng, dim), randVec(rng, dim)
		dot := Dot
		if scalar {
			dot = DotScalar
		}
		for b.Loop() {
			sinkF32 += dot(x, y)
		}
	})
}

func BenchmarkF32Add(b *testing.B) {
	benchPaths(b, func(b *testing.B, dim int, scalar bool) {
		rng := xrand.New(3)
		x, y := randVec(rng, dim), randVec(rng, dim)
		add := Add
		if scalar {
			add = AddScalar
		}
		for b.Loop() {
			add(x, y)
		}
	})
}

func BenchmarkF32Update(b *testing.B) {
	benchPaths(b, func(b *testing.B, dim int, scalar bool) {
		rng := xrand.New(4)
		acc, out, h := randVec(rng, dim), randVec(rng, dim), randVec(rng, dim)
		update := Update
		if scalar {
			update = UpdateScalar
		}
		// A tiny step keeps the rows finite over millions of calls.
		for b.Loop() {
			update(acc, out, h, 1e-7)
		}
	})
}
