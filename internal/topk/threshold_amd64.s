#include "textflag.h"

// func firstAbove(s []float32, i int, root float32) int
//
// The least j >= i with s[j] > root, or len(s): firstAboveGeneric's answer.
// Four scores at a time, CMPPS with the ordered less-than predicate on
// root < s[j] — false for a NaN on either side and for a score equal to
// root, ±0 included, exactly as Go's s[j] > root — and MOVMSKPS/BSF for the
// first lane that fired; then the last len(s)-j < 4 scores one at a time.
// SSE2 only; unaligned loads, because the scores are a slice anywhere.
TEXT ·firstAbove(SB), NOSPLIT, $0-48
	MOVQ   s_base+0(FP), SI
	MOVQ   s_len+8(FP), CX
	MOVQ   i+24(FP), AX
	MOVSS  root+32(FP), X0
	SHUFPS $0x00, X0, X0     // root in every lane
	LEAQ   -4(CX), BX        // last start of a full group of four
	CMPQ   AX, BX
	JGT    tail

	// The loop starts on a 32-byte boundary, so its speed does not depend
	// on where the linker places this function.
	PCALIGN $32

quad:
	MOVUPS   (SI)(AX*4), X1
	MOVAPS   X0, X2
	CMPPS    X1, X2, $1      // lane j: root < s[AX+j]
	MOVMSKPS X2, DX
	TESTL    DX, DX
	JNZ      hit
	ADDQ     $4, AX
	CMPQ     AX, BX
	JLE      quad

tail:
	CMPQ    AX, CX
	JGE     none
	MOVSS   (SI)(AX*4), X1
	UCOMISS X0, X1           // unordered sets CF and ZF, so JHI is false
	JHI     found
	INCQ    AX
	JMP     tail

hit:
	BSFL DX, DX
	ADDQ DX, AX

found:
	MOVQ AX, ret+40(FP)
	RET

none:
	MOVQ CX, ret+40(FP)
	RET
