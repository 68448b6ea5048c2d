//go:build !purego

package f32

// useAsm is true when the CPU and OS support AVX2 and FMA.
var useAsm = hasAVX2FMA()

// asmBuilt reports whether this build carries the assembly kernels.
const asmBuilt = true

//go:noescape
func dotAsm(a, b []float32) float32

//go:noescape
func sqDistAsm(a, b []float32) float32

//go:noescape
func addAsm(dst, src []float32)

//go:noescape
func updateAsm(acc, out, h []float32, scale float32)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

func xgetbv() (eax, edx uint32)

// hasAVX2FMA reports whether the CPU has AVX2 and FMA and the OS
// saves the XMM and YMM register state across context switches.
func hasAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, ecx1, _ := cpuid(1, 0)
	const (
		fma     = 1 << 12
		osxsave = 1 << 27
		avx     = 1 << 28
	)
	if ecx1&(fma|osxsave|avx) != fma|osxsave|avx {
		return false
	}
	if xcr0, _ := xgetbv(); xcr0&0b110 != 0b110 {
		return false
	}
	_, ebx7, _, _ := cpuid(7, 0)
	const avx2 = 1 << 5
	return ebx7&avx2 != 0
}
