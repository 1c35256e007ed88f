//go:build amd64

#include "textflag.h"

// func sqL2AVX(a, b []float64) float64
//
// Squared L2 distance over len(a) elements. 16 float64 per iteration into
// four independent YMM accumulators (breaking the FMA latency chain), then
// a fixed-order reduction: y0+y1, y2+y3, their sum, upper lane folded onto
// lower, the two remaining doubles added low-to-high, and finally a scalar
// FMA tail for len%16 elements. The order never varies, so identical inputs
// give identical bits on every call.
TEXT ·sqL2AVX(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ CX, AX
	SHRQ $4, AX
	JZ   sqreduce

sqloop:
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	VSUBPD (DI), Y4, Y4
	VSUBPD 32(DI), Y5, Y5
	VSUBPD 64(DI), Y6, Y6
	VSUBPD 96(DI), Y7, Y7
	VFMADD231PD Y4, Y4, Y0
	VFMADD231PD Y5, Y5, Y1
	VFMADD231PD Y6, Y6, Y2
	VFMADD231PD Y7, Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ AX
	JNZ  sqloop

sqreduce:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VSHUFPD $1, X0, X0, X1
	VADDSD X1, X0, X0
	ANDQ $15, CX
	JZ   sqdone

sqtail:
	VMOVSD (SI), X2
	VSUBSD (DI), X2, X2
	VFMADD231SD X2, X2, X0
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  sqtail

sqdone:
	VZEROUPPER
	VMOVSD X0, ret+48(FP)
	RET

// func dotAVX(a, b []float64) float64
//
// Inner product with the same accumulator shape and reduction order as
// sqL2AVX.
TEXT ·dotAVX(SB), NOSPLIT, $0-56
	MOVQ a_base+0(FP), SI
	MOVQ a_len+8(FP), CX
	MOVQ b_base+24(FP), DI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ CX, AX
	SHRQ $4, AX
	JZ   dotreduce

dotloop:
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	VFMADD231PD (DI), Y4, Y0
	VFMADD231PD 32(DI), Y5, Y1
	VFMADD231PD 64(DI), Y6, Y2
	VFMADD231PD 96(DI), Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ AX
	JNZ  dotloop

dotreduce:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VSHUFPD $1, X0, X0, X1
	VADDSD X1, X0, X0
	ANDQ $15, CX
	JZ   dotdone

dottail:
	VMOVSD (SI), X2
	VFMADD231SD (DI), X2, X0
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ CX
	JNZ  dottail

dotdone:
	VZEROUPPER
	VMOVSD X0, ret+48(FP)
	RET

// func sqL2BatchAVX(q, data, dst []float64)
//
// One-to-many squared L2: dst[r] = squared distance from q to the r-th
// len(q)-sized row of data, for len(dst) contiguous rows. The per-row
// computation is instruction-for-instruction the sqL2AVX body (same
// accumulator shape, same reduction order, same scalar tail), so each entry
// is bitwise identical to a scalar call; keeping the row loop in assembly
// removes the per-row call overhead of the hot FPF and table sweeps.
TEXT ·sqL2BatchAVX(SB), NOSPLIT, $0-72
	MOVQ q_base+0(FP), R8
	MOVQ q_len+8(FP), CX
	MOVQ data_base+24(FP), DI
	MOVQ dst_base+48(FP), DX
	MOVQ dst_len+56(FP), R9
	TESTQ R9, R9
	JZ   batchdone
	MOVQ CX, R10
	SHRQ $4, R10    // blocks of 16 per row
	MOVQ CX, R11
	ANDQ $15, R11   // tail elements per row

batchrow:
	MOVQ R8, SI
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	MOVQ R10, AX
	TESTQ AX, AX
	JZ   batchreduce

batchloop:
	VMOVUPD (SI), Y4
	VMOVUPD 32(SI), Y5
	VMOVUPD 64(SI), Y6
	VMOVUPD 96(SI), Y7
	VSUBPD (DI), Y4, Y4
	VSUBPD 32(DI), Y5, Y5
	VSUBPD 64(DI), Y6, Y6
	VSUBPD 96(DI), Y7, Y7
	VFMADD231PD Y4, Y4, Y0
	VFMADD231PD Y5, Y5, Y1
	VFMADD231PD Y6, Y6, Y2
	VFMADD231PD Y7, Y7, Y3
	ADDQ $128, SI
	ADDQ $128, DI
	DECQ AX
	JNZ  batchloop

batchreduce:
	VADDPD Y1, Y0, Y0
	VADDPD Y3, Y2, Y2
	VADDPD Y2, Y0, Y0
	VEXTRACTF128 $1, Y0, X1
	VADDPD X1, X0, X0
	VSHUFPD $1, X0, X0, X1
	VADDSD X1, X0, X0
	MOVQ R11, BX
	TESTQ BX, BX
	JZ   batchstore

batchtail:
	VMOVSD (SI), X2
	VSUBSD (DI), X2, X2
	VFMADD231SD X2, X2, X0
	ADDQ $8, SI
	ADDQ $8, DI
	DECQ BX
	JNZ  batchtail

batchstore:
	VMOVSD X0, (DX)
	ADDQ $8, DX
	DECQ R9
	JNZ  batchrow

batchdone:
	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
