#include "textflag.h"

// func dotRows(dst, a, q []float32)
//
// dst[r] = dotGeneric(a[r*d:(r+1)*d], q) for d = len(q), r in [0, len(dst)),
// in dotGeneric's accumulation order: lane j of X0 is its partial sum s_j
// (separate MULPS and ADDPS — a fused multiply-add would round once and
// change bits), then ((s0+s1)+s2)+s3, then the scalar tail. SSE2 only, which
// every amd64 has; unaligned loads, because row views are 4-byte aligned.
TEXT ·dotRows(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ q_base+48(FP), DX
	MOVQ q_len+56(FP), R8
	MOVQ R8, R9
	ANDQ $~3, R9             // elements covered by the 4-lane loop
	TESTQ CX, CX
	JZ   done

row:
	XORPS X0, X0
	XORQ  AX, AX
	CMPQ  AX, R9
	JGE   reduce

	// The 23-byte loop below starts on a 32-byte boundary, so it sits in one
	// 32-byte fetch window and one cache line wherever the linker places
	// this function. Left to the layout, a change elsewhere in the binary
	// once moved it across a 64-byte line and cost the catalog scan 10-15%.
	PCALIGN $32

lanes:
	MOVUPS (SI)(AX*4), X1
	MOVUPS (DX)(AX*4), X2
	MULPS  X2, X1
	ADDPS  X1, X0
	ADDQ   $4, AX
	CMPQ   AX, R9
	JLT    lanes

reduce:
	PSHUFD $0x55, X0, X1     // s1
	PSHUFD $0xAA, X0, X2     // s2
	PSHUFD $0xFF, X0, X3     // s3
	ADDSS  X1, X0
	ADDSS  X2, X0
	ADDSS  X3, X0
	CMPQ   AX, R8
	JGE    store

tail:
	MOVSS (SI)(AX*4), X1
	MULSS (DX)(AX*4), X1
	ADDSS X1, X0
	INCQ  AX
	CMPQ  AX, R8
	JLT   tail

store:
	MOVSS X0, (DI)
	ADDQ  $4, DI
	LEAQ  (SI)(R8*4), SI
	DECQ  CX
	JNZ   row

done:
	RET
