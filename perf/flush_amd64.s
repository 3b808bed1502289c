#include "textflag.h"

// func cpuidLeaf7EBX() uint32
TEXT ·cpuidLeaf7EBX(SB), NOSPLIT, $0-4
	MOVL $7, AX
	MOVL $0, CX
	CPUID
	MOVL BX, ret+0(FP)
	RET

// func clflushopt(p unsafe.Pointer, n uintptr)
TEXT ·clflushopt(SB), NOSPLIT, $0-16
	MOVQ p+0(FP), AX
	MOVQ n+8(FP), CX
	ADDQ AX, CX
loop:
	CMPQ AX, CX
	JAE  done
	CLFLUSHOPT (AX)
	ADDQ $64, AX
	JMP  loop
done:
	SFENCE
	RET
