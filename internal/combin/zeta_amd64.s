//go:build !purego

#include "textflag.h"

// Both kernels walk the table one segment group at a time: the h-cell run
// of bit-clear cells at DI, and its partners at +h (pairs) or at +h, +2h
// and +3h (quads), four cells (two XMM registers) per step. DX holds h in
// bytes and CX the end of the table.

// func zetaQuadsSSE2(p *float64, size, h int)
TEXT ·zetaQuadsSSE2(SB), NOSPLIT, $0-24
	MOVQ p+0(FP), DI
	MOVQ size+8(FP), CX
	MOVQ h+16(FP), DX
	SHLQ $3, CX
	SHLQ $3, DX
	ADDQ DI, CX
	LEAQ (DX)(DX*2), R11 // 3h

quadGroup:
	MOVQ DI, SI
	LEAQ (DI)(DX*1), R9 // end of the bit-clear run

quadStep:
	MOVUPD (SI), X0
	MOVUPD 16(SI), X1
	MOVUPD (SI)(DX*1), X2
	MOVUPD 16(SI)(DX*1), X3
	MOVUPD (SI)(DX*2), X4
	MOVUPD 16(SI)(DX*2), X5
	MOVUPD (SI)(R11*1), X6
	MOVUPD 16(SI)(R11*1), X7
	ADDPD  X4, X6 // a3 + a2
	ADDPD  X5, X7
	ADDPD  X0, X2 // v1 = a1 + a0
	ADDPD  X1, X3
	ADDPD  X0, X4 // v2 = a2 + a0
	ADDPD  X1, X5
	ADDPD  X2, X6 // v3 = (a3 + a2) + v1
	ADDPD  X3, X7
	MOVUPD X2, (SI)(DX*1)
	MOVUPD X3, 16(SI)(DX*1)
	MOVUPD X4, (SI)(DX*2)
	MOVUPD X5, 16(SI)(DX*2)
	MOVUPD X6, (SI)(R11*1)
	MOVUPD X7, 16(SI)(R11*1)
	ADDQ   $32, SI
	CMPQ   SI, R9
	JB     quadStep
	LEAQ   (DI)(DX*4), DI
	CMPQ   DI, CX
	JB     quadGroup
	RET

// func zetaPairsSSE2(p *float64, size, h int)
TEXT ·zetaPairsSSE2(SB), NOSPLIT, $0-24
	MOVQ p+0(FP), DI
	MOVQ size+8(FP), CX
	MOVQ h+16(FP), DX
	SHLQ $3, CX
	SHLQ $3, DX
	ADDQ DI, CX

pairGroup:
	MOVQ DI, SI
	LEAQ (DI)(DX*1), R9 // end of the bit-clear run

pairStep:
	MOVUPD (SI), X0
	MOVUPD 16(SI), X1
	MOVUPD (SI)(DX*1), X2
	MOVUPD 16(SI)(DX*1), X3
	ADDPD  X0, X2 // hi + lo
	ADDPD  X1, X3
	MOVUPD X2, (SI)(DX*1)
	MOVUPD X3, 16(SI)(DX*1)
	ADDQ   $32, SI
	CMPQ   SI, R9
	JB     pairStep
	LEAQ   (DI)(DX*2), DI
	CMPQ   DI, CX
	JB     pairGroup
	RET
