#include "textflag.h"

// func accumTerm(dst, src []float64, c, mean, std float64)
//
// dst[i] += c*(src[i]-mean)/std for i < len(dst) (len(src) == len(dst)),
// with the Go loop's instruction sequence: x−mean, times c, divided by std,
// plus dst[i], each result kept in the register that carried x (so even a
// NaN's payload comes out as the Go loop's does). The packed instructions
// round each lane like their scalar forms and there is no FMA, so every
// element gets accumTermGo's bits.
TEXT ·accumTerm(SB), NOSPLIT, $0-72
	MOVQ   dst_base+0(FP), DI
	MOVQ   dst_len+8(FP), CX
	MOVQ   src_base+24(FP), SI
	MOVSD  c+48(FP), X0
	MOVSD  mean+56(FP), X1
	MOVSD  std+64(FP), X2
	SHUFPD $0, X0, X0
	SHUFPD $0, X1, X1
	SHUFPD $0, X2, X2
	XORQ   AX, AX
	MOVQ   CX, BX
	ANDQ   $-2, BX
	JZ     tail

pairs:
	MOVUPD (SI)(AX*8), X3
	SUBPD  X1, X3
	MULPD  X0, X3
	DIVPD  X2, X3
	MOVUPD (DI)(AX*8), X4
	ADDPD  X4, X3
	MOVUPD X3, (DI)(AX*8)
	ADDQ   $2, AX
	CMPQ   AX, BX
	JLT    pairs

tail:
	CMPQ  AX, CX
	JGE   done
	MOVSD (SI)(AX*8), X3
	SUBSD X1, X3
	MULSD X0, X3
	DIVSD X2, X3
	ADDSD (DI)(AX*8), X3
	MOVSD X3, (DI)(AX*8)

done:
	RET
