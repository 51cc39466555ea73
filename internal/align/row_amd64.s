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

// Word constants for rowAVX2w16: lanes 1..16, the cross-half join's
// lane distances (0 in the low half, 1..8 in the high half), and a
// VPSHUFB mask that broadcasts word 7 of each 128-bit half.
DATA row16Const<>+0(SB)/8, $0x0004000300020001
DATA row16Const<>+8(SB)/8, $0x0008000700060005
DATA row16Const<>+16(SB)/8, $0x000c000b000a0009
DATA row16Const<>+24(SB)/8, $0x0010000f000e000d
DATA row16Const<>+32(SB)/8, $0x0000000000000000
DATA row16Const<>+40(SB)/8, $0x0000000000000000
DATA row16Const<>+48(SB)/8, $0x0004000300020001
DATA row16Const<>+56(SB)/8, $0x0008000700060005
DATA row16Const<>+64(SB)/8, $0x0f0e0f0e0f0e0f0e
DATA row16Const<>+72(SB)/8, $0x0f0e0f0e0f0e0f0e
DATA row16Const<>+80(SB)/8, $0x0f0e0f0e0f0e0f0e
DATA row16Const<>+88(SB)/8, $0x0f0e0f0e0f0e0f0e
GLOBL row16Const<>(SB), RODATA|NOPTR, $96

// func rowAVX2w16(h, e, sub []int16, hDiag, hLeft, goe, ge int16) (best, diag, last, f int16)
//
// rowAVX2's recurrence in sixteen int16 lanes. len(h) is a positive
// multiple of 8, and len(e) and len(sub) are at least len(h): the
// loop runs len(h)/16 vectors and one 8-lane XMM step finishes the
// last eight columns when len(h)/8 is odd. Adds and subtracts
// saturate, so the -32768 fill and deep decays clamp instead of
// wrapping; narrow keeps every value the row stores above -32768.
//
// A shift by one lane with carry is VPERM2I128 $0x21 (the previous
// vector's high half under this one's low half) and VPALIGNR $14.
// The scan runs in each 128-bit half with VPALIGNR filled from -32768
// (shifts 1, 2, 4), then one VPSHUFB+VPERM2I128 step joins the halves:
// lanes 8..15 take max(Z, Z[7] - ge*(lane-7)). The F carry, the
// previous F's lane 15 broadcast by VPSHUFB+VPERMQ, enters as
// cF - ge*(lane+1), off the scan's chain.
TEXT ·rowAVX2w16(SB), NOSPLIT, $0-88
	MOVQ h_base+0(FP), DI
	MOVQ h_len+8(FP), CX
	MOVQ e_base+24(FP), SI
	MOVQ sub_base+48(FP), DX
	MOVQ CX, BX
	SHRQ $4, CX
	ANDQ $8, BX

	VPCMPEQW Y15, Y15, Y15
	VPSLLW $15, Y15, Y15               // -32768
	VMOVDQU row16Const<>+64(SB), Y4    // broadcast word 7 per half

	MOVWLZX ge+78(FP), AX
	VMOVD AX, X14
	VPBROADCASTW X14, Y14              // ge
	VPADDW Y14, Y14, Y13               // 2ge
	VPADDW Y13, Y13, Y12               // 4ge
	VPMULLW row16Const<>+32(SB), Y14, Y11 // ge*(lane-7) in the high half
	VPMULLW row16Const<>+0(SB), Y14, Y10  // ge*(lane+1)
	MOVWLZX goe+76(FP), AX
	VMOVD AX, X9
	VPBROADCASTW X9, Y9                // goe
	MOVWLZX hDiag+72(FP), AX
	VMOVD AX, X8
	VPBROADCASTW X8, Y8                // cH
	MOVWLZX hLeft+74(FP), AX
	VMOVD AX, X7
	VPBROADCASTW X7, Y7                // cX
	MOVL $-16384, AX                   // negInf16
	VMOVD AX, X6
	VPBROADCASTW X6, Y6                // cF
	VMOVDQU Y6, Y5                     // row maximum
	TESTQ CX, CX
	JZ half

loop:
	VPSUBSW Y10, Y6, Y3                // cF - ge*(lane+1)
	VMOVDQU (DI), Y0                   // Hp
	VPSUBSW Y9, Y0, Y1
	VMOVDQU (SI), Y2                   // Ep
	VPSUBSW Y14, Y2, Y2
	VPMAXSW Y2, Y1, Y1                 // E
	VMOVDQU Y1, (SI)
	VPERM2I128 $0x21, Y0, Y8, Y2
	VPALIGNR $14, Y2, Y0, Y2           // diagonal H
	VMOVDQU Y0, Y8
	VPADDSW (DX), Y2, Y2
	VPMAXSW Y2, Y1, Y1                 // X
	VPERM2I128 $0x21, Y1, Y7, Y2
	VPALIGNR $14, Y2, Y1, Y0
	VMOVDQU Y1, Y7
	VPSUBSW Y9, Y0, Y0                 // Z
	VPALIGNR $14, Y15, Y0, Y2
	VPSUBSW Y14, Y2, Y2
	VPMAXSW Y2, Y0, Y0
	VPALIGNR $12, Y15, Y0, Y2
	VPSUBSW Y13, Y2, Y2
	VPMAXSW Y2, Y0, Y0
	VPALIGNR $8, Y15, Y0, Y2
	VPSUBSW Y12, Y2, Y2
	VPMAXSW Y2, Y0, Y0                 // prefix max in each half
	VPSHUFB Y4, Y0, Y2
	VPERM2I128 $0x20, Y2, Y15, Y2
	VPSUBSW Y11, Y2, Y2
	VPMAXSW Y2, Y0, Y0                 // prefix max
	VPMAXSW Y3, Y0, Y0                 // F
	VPSHUFB Y4, Y0, Y6
	VPERMQ $0xff, Y6, Y6               // cF
	VPMAXSW Y0, Y1, Y1                 // H
	VMOVDQU Y1, (DI)
	VPMAXSW Y1, Y5, Y5
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	DECQ CX
	JNZ loop

half:
	// Carry on in the high halves: word 7 of X8, X7 and X1 is the last
	// column's Hp, X and H so far.
	VEXTRACTI128 $1, Y5, X0
	VPMAXSW X0, X5, X5
	VEXTRACTI128 $1, Y8, X8
	VEXTRACTI128 $1, Y7, X7
	VEXTRACTI128 $1, Y1, X1
	TESTQ BX, BX
	JZ done
	VPSUBSW X10, X6, X3
	VMOVDQU (DI), X0
	VPSUBSW X9, X0, X1
	VMOVDQU (SI), X2
	VPSUBSW X14, X2, X2
	VPMAXSW X2, X1, X1
	VMOVDQU X1, (SI)
	VPALIGNR $14, X8, X0, X2
	VMOVDQU X0, X8
	VPADDSW (DX), X2, X2
	VPMAXSW X2, X1, X1
	VPALIGNR $14, X7, X1, X0
	VPSUBSW X9, X0, X0
	VPALIGNR $14, X15, X0, X2
	VPSUBSW X14, X2, X2
	VPMAXSW X2, X0, X0
	VPALIGNR $12, X15, X0, X2
	VPSUBSW X13, X2, X2
	VPMAXSW X2, X0, X0
	VPALIGNR $8, X15, X0, X2
	VPSUBSW X12, X2, X2
	VPMAXSW X2, X0, X0
	VPMAXSW X3, X0, X0
	VPSHUFB X4, X0, X6
	VPMAXSW X0, X1, X1
	VMOVDQU X1, (DI)
	VPMAXSW X1, X5, X5

done:
	VPSHUFD $0x4e, X5, X0
	VPMAXSW X0, X5, X5
	VPSHUFD $0xb1, X5, X0
	VPMAXSW X0, X5, X5
	VPSRLD $16, X5, X0
	VPMAXSW X0, X5, X5
	VPEXTRW $0, X5, AX
	MOVW AX, best+80(FP)
	VPEXTRW $7, X8, AX
	MOVW AX, diag+82(FP)
	VPEXTRW $7, X1, AX
	MOVW AX, last+84(FP)
	VPEXTRW $0, X6, AX
	MOVW AX, f+86(FP)
	VZEROUPPER
	RET

// func firstEq16(h []int16, v int16) int
//
// The first k with h[k] == v, or len(h): sixteen words per VPCMPEQW,
// the first set bit of its VPMOVMSKB mask (TZCNT, two bits per word),
// then a scalar scan of the last len(h)%16 words.
TEXT ·firstEq16(SB), NOSPLIT, $0-40
	MOVQ h_base+0(FP), SI
	MOVQ h_len+8(FP), CX
	MOVWLZX v+24(FP), AX
	VMOVD AX, X0
	VPBROADCASTW X0, Y0
	XORQ BX, BX
	MOVQ CX, DX
	ANDQ $-16, DX
	JZ tail

vec:
	VPCMPEQW (SI)(BX*2), Y0, Y1
	VPMOVMSKB Y1, R8
	TESTL R8, R8
	JNZ found
	ADDQ $16, BX
	CMPQ BX, DX
	JLT vec

tail:
	CMPQ BX, CX
	JGE out
	MOVWLZX (SI)(BX*2), R9
	CMPL R9, AX
	JEQ out
	INCQ BX
	JMP tail

found:
	TZCNTL R8, R8
	SHRQ $1, R8
	ADDQ R8, BX

out:
	VZEROUPPER
	MOVQ BX, ret+32(FP)
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
