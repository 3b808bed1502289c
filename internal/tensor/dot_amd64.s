#include "textflag.h"

// func dotRows(dst, a, q []float32)
//
// dst[r] = dotGeneric(a[r*d:(r+1)*d], q) for d = len(q), r in [0, len(dst)),
// in dotGeneric's accumulation order: lane j of a row's accumulator is its
// partial sum s_j (separate MULPS and ADDPS — a fused multiply-add would
// round once and change bits), then ((s0+s1)+s2)+s3, then the tail elements
// in order. SSE2 only, which every amd64 has; unaligned loads, because row
// views are 4-byte aligned.
//
// Rows go four at a time: X0–X3 accumulate rows r..r+3 against one load of
// q per group of four elements, so four independent ADDPS chains hide the
// add latency that bounds a single row. A 4×4 transpose then puts s_j of
// all four rows in one register, three vertical ADDPS compute
// ((s0+s1)+s2)+s3 in every lane at once, and each tail element is gathered
// across the four rows and multiplied by a broadcast q[j] — per lane the
// same two rounded operations as MULSS and ADDSS. The last len(dst) mod 4
// rows take the one-row loop.
TEXT ·dotRows(SB), NOSPLIT, $0-72
	MOVQ dst_base+0(FP), DI
	MOVQ dst_len+8(FP), CX
	MOVQ a_base+24(FP), SI
	MOVQ q_base+48(FP), DX
	MOVQ q_len+56(FP), R8
	MOVQ R8, R9
	ANDQ $~3, R9             // elements covered by the 4-lane loops
	LEAQ (R8*4), R10         // bytes from one row to the next
	CMPQ CX, $4
	JLT  single

quad:
	LEAQ  (SI)(R10*1), R11   // row r+1
	LEAQ  (SI)(R10*2), R12   // row r+2
	LEAQ  (R11)(R10*2), R13  // row r+3
	XORPS X0, X0
	XORPS X1, X1
	XORPS X2, X2
	XORPS X3, X3
	XORQ  AX, AX
	CMPQ  AX, R9
	JGE   fold

	// Both lane loops start on a 32-byte boundary, so their fetch windows
	// and cache lines do not depend on where the linker places this
	// function. Left to the layout, a change elsewhere in the binary once
	// moved the one-row loop across a 64-byte line and cost the catalog
	// scan 10-15%.
	PCALIGN $32

quadlanes:
	MOVUPS (DX)(AX*4), X4
	MOVUPS (SI)(AX*4), X5
	MULPS  X4, X5
	ADDPS  X5, X0
	MOVUPS (R11)(AX*4), X6
	MULPS  X4, X6
	ADDPS  X6, X1
	MOVUPS (R12)(AX*4), X7
	MULPS  X4, X7
	ADDPS  X7, X2
	MOVUPS (R13)(AX*4), X5
	MULPS  X4, X5
	ADDPS  X5, X3
	ADDQ   $4, AX
	CMPQ   AX, R9
	JLT    quadlanes

fold:
	// X0..X3 = [a0 a1 a2 a3], [b0 b1 b2 b3], [c0 ..], [d0 ..]: lane j of
	// row r's accumulator. Transpose to s_j = [a_j b_j c_j d_j].
	MOVAPS   X0, X4
	UNPCKLPS X1, X4          // a0 b0 a1 b1
	UNPCKHPS X1, X0          // a2 b2 a3 b3
	MOVAPS   X2, X5
	UNPCKLPS X3, X5          // c0 d0 c1 d1
	UNPCKHPS X3, X2          // c2 d2 c3 d3
	MOVAPS   X4, X1
	MOVLHPS  X5, X1          // s0 = a0 b0 c0 d0
	MOVHLPS  X4, X5          // s1 = a1 b1 c1 d1
	MOVAPS   X0, X3
	MOVLHPS  X2, X3          // s2 = a2 b2 c2 d2
	MOVHLPS  X0, X2          // s3 = a3 b3 c3 d3
	ADDPS    X5, X1
	ADDPS    X3, X1
	ADDPS    X2, X1
	CMPQ     AX, R8
	JGE      quadstore

quadtail:
	MOVSS    (SI)(AX*4), X4
	MOVSS    (R11)(AX*4), X5
	MOVSS    (R12)(AX*4), X6
	MOVSS    (R13)(AX*4), X7
	UNPCKLPS X5, X4          // a_j b_j 0 0
	UNPCKLPS X7, X6          // c_j d_j 0 0
	MOVLHPS  X6, X4          // a_j b_j c_j d_j
	MOVSS    (DX)(AX*4), X8
	SHUFPS   $0x00, X8, X8   // q_j in every lane
	MULPS    X8, X4
	ADDPS    X4, X1
	INCQ     AX
	CMPQ     AX, R8
	JLT      quadtail

quadstore:
	MOVUPS X1, (DI)
	ADDQ   $16, DI
	LEAQ   (R13)(R10*1), SI
	SUBQ   $4, CX
	CMPQ   CX, $4
	JGE    quad

single:
	TESTQ CX, CX
	JZ    done

row:
	XORPS X0, X0
	XORQ  AX, AX
	CMPQ  AX, R9
	JGE   reduce

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
