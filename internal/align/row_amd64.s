#include "textflag.h"

// Permutation indices and lane numbers for rowAVX2. VPERMD by idx1,
// idx2 or idx4 moves every lane up by 1, 2 or 4 (the low lanes repeat
// lane 0); idx7 broadcasts lane 7; lanes holds 1..8.
DATA rowConst<>+0(SB)/8, $0x0000000000000000
DATA rowConst<>+8(SB)/8, $0x0000000200000001
DATA rowConst<>+16(SB)/8, $0x0000000400000003
DATA rowConst<>+24(SB)/8, $0x0000000600000005
DATA rowConst<>+32(SB)/8, $0x0000000000000000
DATA rowConst<>+40(SB)/8, $0x0000000100000000
DATA rowConst<>+48(SB)/8, $0x0000000300000002
DATA rowConst<>+56(SB)/8, $0x0000000500000004
DATA rowConst<>+64(SB)/8, $0x0000000000000000
DATA rowConst<>+72(SB)/8, $0x0000000000000000
DATA rowConst<>+80(SB)/8, $0x0000000100000000
DATA rowConst<>+88(SB)/8, $0x0000000300000002
DATA rowConst<>+96(SB)/8, $0x0000000700000007
DATA rowConst<>+104(SB)/8, $0x0000000700000007
DATA rowConst<>+112(SB)/8, $0x0000000700000007
DATA rowConst<>+120(SB)/8, $0x0000000700000007
DATA rowConst<>+128(SB)/8, $0x0000000200000001
DATA rowConst<>+136(SB)/8, $0x0000000400000003
DATA rowConst<>+144(SB)/8, $0x0000000600000005
DATA rowConst<>+152(SB)/8, $0x0000000800000007
GLOBL rowConst<>(SB), RODATA|NOPTR, $160

// func rowAVX2(h, e, sub []int32, hDiag, hLeft, goe, ge int32) (best, diag, last, f int32)
//
// len(h) is a positive multiple of 8, and len(e) and len(sub) are at
// least len(h). Per 8-column vector, with Hp/Ep the previous row:
//
//	E = max(Ep-ge, Hp-goe)
//	X = max(Hp shifted one lane + sub, E)      lane 0 from cH
//	Z = X shifted one lane - goe               lane 0 from cX
//	Z = max(Z, Z shifted 1 - ge), then by 2 with 2ge, then by 4 with 4ge
//	F = max(Z, cF - ge*(lane+1))
//	H = max(X, F)
//
// cH, cX and cF carry lane 7 of Hp, X and F into the next vector; they
// start as hDiag, hLeft and negInf. The scan leaves the low lanes'
// shifted-in copies of lane 0 unmasked: with ge >= 0 they are never
// above the lane's own value.
TEXT ·rowAVX2(SB), NOSPLIT, $0-104
	MOVQ h_base+0(FP), DI
	MOVQ h_len+8(FP), CX
	MOVQ e_base+24(FP), SI
	MOVQ sub_base+48(FP), DX
	SHRQ $3, CX

	VMOVDQU rowConst<>+0(SB), Y15
	VMOVDQU rowConst<>+32(SB), Y14
	VMOVDQU rowConst<>+64(SB), Y13
	VMOVDQU rowConst<>+96(SB), Y12

	MOVL ge+84(FP), AX
	VMOVD AX, X10
	VPBROADCASTD X10, Y10              // ge
	VPMULLD rowConst<>+128(SB), Y10, Y11 // ge*(lane+1)
	VPADDD Y10, Y10, Y9                // 2ge
	VPADDD Y9, Y9, Y8                  // 4ge
	MOVL goe+80(FP), AX
	VMOVD AX, X7
	VPBROADCASTD X7, Y7                // goe
	MOVL hDiag+72(FP), AX
	VMOVD AX, X6
	VPBROADCASTD X6, Y6                // cH
	MOVL hLeft+76(FP), AX
	VMOVD AX, X5
	VPBROADCASTD X5, Y5                // cX
	MOVL $-1073741824, AX              // negInf
	VMOVD AX, X4
	VPBROADCASTD X4, Y4                // cF
	VMOVDQU Y4, Y3                     // row maximum

loop:
	VMOVDQU (DI), Y0                   // Hp
	VPSUBD Y7, Y0, Y1
	VMOVDQU (SI), Y2                   // Ep
	VPSUBD Y10, Y2, Y2
	VPMAXSD Y2, Y1, Y1                 // E
	VMOVDQU Y1, (SI)
	VPERMD Y0, Y15, Y2
	VPBLENDD $1, Y6, Y2, Y2            // diagonal H
	VPERMD Y0, Y12, Y6
	VPADDD (DX), Y2, Y2
	VPMAXSD Y2, Y1, Y1                 // X
	VPERMD Y1, Y15, Y0
	VPBLENDD $1, Y5, Y0, Y0
	VPERMD Y1, Y12, Y5
	VPSUBD Y7, Y0, Y0                  // Z
	VPSUBD Y10, Y0, Y2
	VPERMD Y2, Y15, Y2
	VPMAXSD Y2, Y0, Y0
	VPSUBD Y9, Y0, Y2
	VPERMD Y2, Y14, Y2
	VPMAXSD Y2, Y0, Y0
	VPSUBD Y8, Y0, Y2
	VPERMD Y2, Y13, Y2
	VPMAXSD Y2, Y0, Y0                 // in-vector prefix max
	VPSUBD Y11, Y4, Y2
	VPMAXSD Y2, Y0, Y0                 // F
	VPERMD Y0, Y12, Y4
	VPMAXSD Y0, Y1, Y1                 // H
	VMOVDQU Y1, (DI)
	VPMAXSD Y1, Y3, Y3
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	DECQ CX
	JNZ loop

	VEXTRACTI128 $1, Y3, X0
	VPMAXSD X0, X3, X3
	VPSHUFD $0x4e, X3, X0
	VPMAXSD X0, X3, X3
	VPSHUFD $0xb1, X3, X0
	VPMAXSD X0, X3, X3
	VMOVD X3, AX
	MOVL AX, best+88(FP)
	VMOVD X6, AX
	MOVL AX, diag+92(FP)
	VEXTRACTI128 $1, Y1, X0
	VPEXTRD $3, X0, AX
	MOVL AX, last+96(FP)
	VMOVD X4, AX
	MOVL AX, f+100(FP)
	VZEROUPPER
	RET

// func cpuid(leaf, sub uint32) (a, b, c, d uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, a+8(FP)
	MOVL BX, b+12(FP)
	MOVL CX, c+16(FP)
	MOVL DX, d+20(FP)
	RET

// func xgetbv() (lo uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, lo+0(FP)
	RET
