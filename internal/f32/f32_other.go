//go:build !amd64 || purego

package f32

// useAsm is false: this build has no assembly kernels.
const useAsm = false

// asmBuilt reports whether this build carries the assembly kernels.
const asmBuilt = false

func dotAsm(a, b []float32) float32                  { panic("f32: no assembly kernels in this build") }
func sqDistAsm(a, b []float32) float32               { panic("f32: no assembly kernels in this build") }
func addAsm(dst, src []float32)                      { panic("f32: no assembly kernels in this build") }
func updateAsm(acc, out, h []float32, scale float32) { panic("f32: no assembly kernels in this build") }
