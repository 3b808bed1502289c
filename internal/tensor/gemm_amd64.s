#include "textflag.h"

// func gemmRow(c, a, b []float32)
//
// c = a × b for one row a (length k) of the left operand and b, k rows of
// len(c) = n columns, row-major, in gemmRowGeneric's order: every output
// starts at +0.0, and for l = 0, 1, …, k-1 with a[l] != ±0 it becomes
// c[j] + b[l][j]*a[l], a MULPS and then an ADDPS (a fused multiply-add
// would round once and change bits). The output is walked in blocks of 32
// columns held in the eight accumulators X0–X7 over the whole of k, then
// blocks of 4 in X0, then single columns; each column sees the same
// operations in the same order whichever path it takes. b is read in place,
// with unaligned loads, because row views are only 4-byte aligned. SSE2
// only, which every amd64 has.
TEXT ·gemmRow(SB), NOSPLIT, $0-72
	MOVQ c_base+0(FP), DI
	MOVQ c_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ a_len+32(FP), R8
	MOVQ b_base+48(FP), DX
	LEAQ (CX*4), R9          // bytes from one row of b to the next

block32:
	CMPQ  CX, $32
	JLT   block4
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORPS X4, X4
	XORPS X5, X5
	XORPS X6, X6
	XORPS X7, X7
	MOVQ  DX, R11            // b[l][j0:j0+32]
	XORQ  AX, AX
	CMPQ  AX, R8
	JGE   store32

	// As in dotRows, the loop starts on a 32-byte fetch boundary wherever
	// the linker places this function.
	PCALIGN $32

k32:
	MOVL   (SI)(AX*4), BX
	TESTL  $0x7fffffff, BX   // a[l] == ±0: skipped, as the Go loop skips it
	JZ     next32
	MOVSS  (SI)(AX*4), X15
	SHUFPS $0x00, X15, X15
	MOVUPS (R11), X8
	MOVUPS 16(R11), X9
	MOVUPS 32(R11), X10
	MOVUPS 48(R11), X11
	MULPS  X15, X8
	MULPS  X15, X9
	MULPS  X15, X10
	MULPS  X15, X11
	ADDPS  X8, X0
	ADDPS  X9, X1
	ADDPS  X10, X2
	ADDPS  X11, X3
	MOVUPS 64(R11), X12
	MOVUPS 80(R11), X13
	MOVUPS 96(R11), X14
	MOVUPS 112(R11), X8
	MULPS  X15, X12
	MULPS  X15, X13
	MULPS  X15, X14
	MULPS  X15, X8
	ADDPS  X12, X4
	ADDPS  X13, X5
	ADDPS  X14, X6
	ADDPS  X8, X7

next32:
	ADDQ R9, R11
	INCQ AX
	CMPQ AX, R8
	JLT  k32

store32:
	MOVUPS X0, (DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	MOVUPS X5, 80(DI)
	MOVUPS X6, 96(DI)
	MOVUPS X7, 112(DI)
	ADDQ   $128, DI
	ADDQ   $128, DX
	SUBQ   $32, CX
	JMP    block32

block4:
	CMPQ  CX, $4
	JLT   col1
	XORPS X0, X0
	MOVQ  DX, R11
	XORQ  AX, AX
	CMPQ  AX, R8
	JGE   store4

k4:
	MOVL   (SI)(AX*4), BX
	TESTL  $0x7fffffff, BX
	JZ     next4
	MOVSS  (SI)(AX*4), X15
	SHUFPS $0x00, X15, X15
	MOVUPS (R11), X8
	MULPS  X15, X8
	ADDPS  X8, X0

next4:
	ADDQ R9, R11
	INCQ AX
	CMPQ AX, R8
	JLT  k4

store4:
	MOVUPS X0, (DI)
	ADDQ   $16, DI
	ADDQ   $16, DX
	SUBQ   $4, CX
	JMP    block4

col1:
	TESTQ CX, CX
	JZ    done
	XORPS X0, X0
	MOVQ  DX, R11
	XORQ  AX, AX
	CMPQ  AX, R8
	JGE   store1

k1:
	MOVL  (SI)(AX*4), BX
	TESTL $0x7fffffff, BX
	JZ    next1
	MOVSS (SI)(AX*4), X15
	MOVSS (R11), X8
	MULSS X15, X8
	ADDSS X8, X0

next1:
	ADDQ R9, R11
	INCQ AX
	CMPQ AX, R8
	JLT  k1

store1:
	MOVSS X0, (DI)
	ADDQ  $4, DI
	ADDQ  $4, DX
	DECQ  CX
	JMP   col1

done:
	RET
