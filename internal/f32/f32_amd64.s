//go:build !purego

#include "textflag.h"

// func dotAsm(a, b []float32) float32
//
// Two 8-lane FMA accumulators over 16 floats a step, one more 8-lane
// step, a fold to 4 lanes, one 4-lane step, a horizontal sum, then a
// scalar FMA tail.
TEXT ·dotAsm(SB), NOSPLIT, $0-52
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

dot16:
	CMPQ        CX, $16
	JL          dot8
	VMOVUPS     (SI), Y2
	VMOVUPS     32(SI), Y3
	VFMADD231PS (DI), Y2, Y0
	VFMADD231PS 32(DI), Y3, Y1
	ADDQ        $64, SI
	ADDQ        $64, DI
	SUBQ        $16, CX
	JMP         dot16

dot8:
	CMPQ        CX, $8
	JL          dotfold
	VMOVUPS     (SI), Y2
	VFMADD231PS (DI), Y2, Y0
	ADDQ        $32, SI
	ADDQ        $32, DI
	SUBQ        $8, CX

dotfold:
	VADDPS       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	CMPQ         CX, $4
	JL           dotsum
	VMOVUPS      (SI), X2
	VFMADD231PS  (DI), X2, X0
	ADDQ         $16, SI
	ADDQ         $16, DI
	SUBQ         $4, CX

dotsum:
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0

dot1:
	TESTQ       CX, CX
	JE          dotdone
	VMOVSS      (SI), X2
	VFMADD231SS (DI), X2, X0
	ADDQ        $4, SI
	ADDQ        $4, DI
	DECQ        CX
	JMP         dot1

dotdone:
	VZEROUPPER
	MOVSS X0, ret+48(FP)
	RET

// func sqDistAsm(a, b []float32) float32
//
// The shape of dotAsm with a VSUBPS before each FMA: the differences
// are squared into two 8-lane accumulators over 16 floats a step, one
// more 8-lane step, a fold to 4 lanes, one 4-lane step, a horizontal
// sum, then a scalar tail.
TEXT ·sqDistAsm(SB), NOSPLIT, $0-52
	MOVQ   a_base+0(FP), SI
	MOVQ   a_len+8(FP), CX
	MOVQ   b_base+24(FP), DI
	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

sq16:
	CMPQ        CX, $16
	JL          sq8
	VMOVUPS     (SI), Y2
	VMOVUPS     32(SI), Y3
	VSUBPS      (DI), Y2, Y2
	VSUBPS      32(DI), Y3, Y3
	VFMADD231PS Y2, Y2, Y0
	VFMADD231PS Y3, Y3, Y1
	ADDQ        $64, SI
	ADDQ        $64, DI
	SUBQ        $16, CX
	JMP         sq16

sq8:
	CMPQ        CX, $8
	JL          sqfold
	VMOVUPS     (SI), Y2
	VSUBPS      (DI), Y2, Y2
	VFMADD231PS Y2, Y2, Y0
	ADDQ        $32, SI
	ADDQ        $32, DI
	SUBQ        $8, CX

sqfold:
	VADDPS       Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPS       X1, X0, X0
	CMPQ         CX, $4
	JL           sqsum
	VMOVUPS      (SI), X2
	VSUBPS       (DI), X2, X2
	VFMADD231PS  X2, X2, X0
	ADDQ         $16, SI
	ADDQ         $16, DI
	SUBQ         $4, CX

sqsum:
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0

sq1:
	TESTQ       CX, CX
	JE          sqdone
	VMOVSS      (SI), X2
	VSUBSS      (DI), X2, X2
	VFMADD231SS X2, X2, X0
	ADDQ        $4, SI
	ADDQ        $4, DI
	DECQ        CX
	JMP         sq1

sqdone:
	VZEROUPPER
	MOVSS X0, ret+48(FP)
	RET

// func addAsm(dst, src []float32)
TEXT ·addAsm(SB), NOSPLIT, $0-48
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ src_base+24(FP), SI

add8:
	CMPQ    CX, $8
	JL      add4
	VMOVUPS (DI), Y0
	VADDPS  (SI), Y0, Y0
	VMOVUPS Y0, (DI)
	ADDQ    $32, DI
	ADDQ    $32, SI
	SUBQ    $8, CX
	JMP     add8

add4:
	CMPQ    CX, $4
	JL      add1
	VMOVUPS (DI), X0
	VADDPS  (SI), X0, X0
	VMOVUPS X0, (DI)
	ADDQ    $16, DI
	ADDQ    $16, SI
	SUBQ    $4, CX

add1:
	TESTQ  CX, CX
	JE     adddone
	VMOVSS (DI), X0
	VADDSS (SI), X0, X0
	VMOVSS X0, (DI)
	ADDQ   $4, DI
	ADDQ   $4, SI
	DECQ   CX
	JMP    add1

adddone:
	VZEROUPPER
	RET

// func updateAsm(acc, out, h []float32, scale float32)
//
// acc += scale*out; out += scale*h, eight floats a step, then one
// 4-lane step and a scalar tail: out is loaded once and feeds acc
// before its own update is stored.
TEXT ·updateAsm(SB), NOSPLIT, $0-76
	MOVQ         acc_base+0(FP), DI
	MOVQ         acc_len+8(FP), CX
	MOVQ         out_base+24(FP), SI
	MOVQ         h_base+48(FP), DX
	VBROADCASTSS scale+72(FP), Y15

upd8:
	CMPQ        CX, $8
	JL          upd4
	VMOVUPS     (SI), Y0
	VMOVUPS     (DI), Y1
	VFMADD231PS Y0, Y15, Y1
	VFMADD231PS (DX), Y15, Y0
	VMOVUPS     Y1, (DI)
	VMOVUPS     Y0, (SI)
	ADDQ        $32, DI
	ADDQ        $32, SI
	ADDQ        $32, DX
	SUBQ        $8, CX
	JMP         upd8

upd4:
	CMPQ        CX, $4
	JL          upd1
	VMOVUPS     (SI), X0
	VMOVUPS     (DI), X1
	VFMADD231PS X0, X15, X1
	VFMADD231PS (DX), X15, X0
	VMOVUPS     X1, (DI)
	VMOVUPS     X0, (SI)
	ADDQ        $16, DI
	ADDQ        $16, SI
	ADDQ        $16, DX
	SUBQ        $4, CX

upd1:
	TESTQ       CX, CX
	JE          upddone
	VMOVSS      (SI), X0
	VMOVSS      (DI), X1
	VFMADD231SS X0, X15, X1
	VFMADD231SS (DX), X15, X0
	VMOVSS      X1, (DI)
	VMOVSS      X0, (SI)
	ADDQ        $4, DI
	ADDQ        $4, SI
	ADDQ        $4, DX
	DECQ        CX
	JMP         upd1

upddone:
	VZEROUPPER
	RET

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL   $0, CX
	XGETBV
	MOVL   AX, eax+0(FP)
	MOVL   DX, edx+4(FP)
	RET
