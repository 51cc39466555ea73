#include "go_asm.h"
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

// func passAVX2w16(p *pass16)
//
// extendPass's row loop over int16 rows, rows 1..p.m, in one call.
// Registers across rows: R8 = p, R11 = i, R12 = beg, R13 = endValid
// (endRow within a row); R9, R10 and R14 hold h, e and n except inside
// the row, which reloads them. The constants stay in Y4, Y7 and
// Y9..Y15 for the whole pass.
//
// The row is rowAVX2's recurrence in sixteen lanes, in a shift-free
// form: F'[j] = F[j+1] + goe = max(F'[j-1] - ge, X[j]) is a decayed
// inclusive prefix max of X, and H = max(X, F' - GapOpen). The
// diagonal H is an unaligned load one column left (D), made a vector
// ahead, before the vector's H is stored; h must hold 15 columns
// past n. Adds and subtracts saturate, so the -32768 fill and deep
// decays clamp instead of wrapping; narrow keeps every value the row
// stores above -32768. The scan runs in each 128-bit half with
// VPALIGNR filled from -32768 (shifts 1, 2, 4), then one
// VPSHUFB+VPERM2I128 step joins the halves: lanes 8..15 take
// max(S, S[7] - ge*(lane-7)). The F' carry, the previous vector's
// lane 15 broadcast by VPSHUFB+VPERMQ, enters as cF' - ge*(lane+1),
// off the scan's chain. An odd eighth runs as one 8-lane step and the
// last count%8 columns as scalar code, which computes in 64 bits the
// values extendRow computes in int16.
TEXT ·passAVX2w16(SB), NOSPLIT, $0-8
	MOVQ p+0(FP), R8
	VMOVDQU pass16_kMin(R8), Y15
	VMOVDQU pass16_kGE(R8), Y14
	VMOVDQU pass16_kGE2(R8), Y13
	VMOVDQU pass16_kGE4(R8), Y12
	VMOVDQU pass16_kJoin(R8), Y11
	VMOVDQU pass16_kLane(R8), Y10
	VMOVDQU pass16_kGOE(R8), Y9
	VMOVDQU pass16_kShuf(R8), Y4
	VMOVDQU pass16_kGapO(R8), Y7
	XORQ R11, R11
	MOVQ pass16_beg(R8), R12
	MOVQ pass16_endValid(R8), R13

row:
	MOVQ pass16_h(R8), R9
	MOVQ pass16_e(R8), R10
	MOVQ pass16_n(R8), R14
	INCQ R11
	CMPQ R11, pass16_m(R8)
	JGT  done

	// Band: beg = max(beg, i-w).
	MOVQ pass16_w(R8), AX
	TESTQ AX, AX
	JS   grow
	MOVQ R11, BX
	SUBQ AX, BX
	CMPQ BX, R12
	CMOVQGT BX, R12

grow:
	// The window may extend one column right via the diagonal.
	CMPQ R13, R14
	JGE  bounds
	INCQ R13
	MOVW $const_negInf16, (R9)(R13*2)
	MOVW $const_negInf16, (R10)(R13*2)

bounds:
	CMPQ R12, R13
	JGT  bandLeft
	MOVQ R13, pass16_endRow(R8)

	// hBound = hBase - i*ge inside the band's first column, else dead.
	MOVQ $const_negInf16, AX
	MOVQ pass16_w(R8), BX
	TESTQ BX, BX
	JS   bound
	CMPQ R11, BX
	JGT  boundDone

bound:
	MOVQ R11, AX
	IMULQ pass16_ge(R8), AX
	NEGQ AX
	ADDQ pass16_hBase(R8), AX

boundDone:
	// hDiag = h[beg-1] (BX), and D (Y8) = h[beg-1..beg+14], the first
	// vector's diagonal H, both read before h[0] takes hBound at column
	// 1; hLeft (AX) = hBound there, else dead.
	LEAQ (R9)(R12*2), DI               // &h[beg]
	LEAQ (R10)(R12*2), SI              // &e[beg]
	MOVWQSX -2(DI), BX
	VMOVDQU -2(DI), Y8
	CMPQ R12, $1
	JNE  leftDead
	MOVW AX, (R9)
	JMP  operands

leftDead:
	MOVQ $const_negInf16, AX

operands:
	MOVQ pass16_ref(R8), DX
	MOVBQZX -1(DX)(R11*1), DX          // ref[i-1]
	IMULQ R14, DX
	ADDQ R12, DX
	MOVQ pass16_prof(R8), CX
	LEAQ -2(CX)(DX*2), DX              // &prof[ref[i-1]*n + beg-1]
	MOVQ R13, CX
	SUBQ R12, CX
	INCQ CX                            // columns
	MOVQ CX, R15
	ANDQ $7, R15                       // scalar tail
	MOVQ $const_negInf16, R14          // row maximum
	MOVQ $const_negInf16, R13          // F
	SHRQ $3, CX
	JZ   tail

	// The F carry into the first column, F(beg)+goe = max(dead-ge,
	// hLeft-goe)+goe.
	MOVQ pass16_gapO(R8), R9
	ADDQ $const_negInf16, R9
	CMPQ AX, R9
	CMOVQGT AX, R9
	VMOVD R9, X6
	VPBROADCASTW X6, Y6                // cF'
	VMOVDQU pass16_kDead(R8), Y5       // row maximum
	MOVQ CX, BX
	ANDQ $1, BX                        // odd eighth
	SHRQ $1, CX
	JZ   half

vec:
	VPSUBSW Y10, Y6, Y3                // cF' - ge*(lane+1)
	VMOVDQU (DI), Y0                   // Hp
	VPSUBSW Y9, Y0, Y1
	VMOVDQU (SI), Y2                   // Ep
	VPSUBSW Y14, Y2, Y2
	VPMAXSW Y2, Y1, Y1                 // E
	VMOVDQU Y1, (SI)
	VPADDSW (DX), Y8, Y2
	VMOVDQU 30(DI), Y8                 // next D, read before H is stored
	VPMAXSW Y2, Y1, Y1                 // X
	VPALIGNR $14, Y15, Y1, Y2
	VPSUBSW Y14, Y2, Y2
	VPMAXSW Y2, Y1, Y0
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
	VPMAXSW Y3, Y0, Y0                 // F' = F(next column) + goe
	VPSHUFB Y4, Y0, Y6
	VPERMQ $0xff, Y6, Y6               // cF'
	VPSUBSW Y7, Y0, Y0                 // F(next column) + ge
	VPMAXSW Y0, Y1, Y1                 // H
	VMOVDQU Y1, (DI)
	VPMAXSW Y1, Y5, Y5
	ADDQ $32, DI
	ADDQ $32, SI
	ADDQ $32, DX
	DECQ CX
	JNZ  vec

half:
	// X8 holds the next eight columns' D; word 7 of X1 is the last H
	// so far.
	VEXTRACTI128 $1, Y5, X0
	VPMAXSW X0, X5, X5
	VEXTRACTI128 $1, Y1, X1
	TESTQ BX, BX
	JZ   reduce
	VPSUBSW X10, X6, X3
	VMOVDQU (DI), X0
	VPSUBSW X9, X0, X1
	VMOVDQU (SI), X2
	VPSUBSW X14, X2, X2
	VPMAXSW X2, X1, X1
	VMOVDQU X1, (SI)
	VPADDSW (DX), X8, X2
	VMOVDQU 14(DI), X8
	VPMAXSW X2, X1, X1
	VPALIGNR $14, X15, X1, X2
	VPSUBSW X14, X2, X2
	VPMAXSW X2, X1, X0
	VPALIGNR $12, X15, X0, X2
	VPSUBSW X13, X2, X2
	VPMAXSW X2, X0, X0
	VPALIGNR $8, X15, X0, X2
	VPSUBSW X12, X2, X2
	VPMAXSW X2, X0, X0
	VPMAXSW X3, X0, X0
	VPSHUFB X4, X0, X6
	VPSUBSW X7, X0, X0
	VPMAXSW X0, X1, X1
	VMOVDQU X1, (DI)
	VPMAXSW X1, X5, X5
	ADDQ $16, DI
	ADDQ $16, SI
	ADDQ $16, DX

reduce:
	// The scalar state after the last vector column: hDiag its old H
	// (word 0 of D), hLeft its H, and, for F, F(next column) + ge,
	// which the next F step maps to F(next column) as F itself would.
	VPSHUFD $0x4e, X5, X0
	VPMAXSW X0, X5, X5
	VPSHUFD $0xb1, X5, X0
	VPMAXSW X0, X5, X5
	VPSRLD $16, X5, X0
	VPMAXSW X0, X5, X5
	VPEXTRW $0, X5, AX
	MOVWQSX AX, R14                    // row maximum
	VPEXTRW $0, X8, AX
	MOVWQSX AX, BX                     // hDiag
	VPEXTRW $0, X6, AX
	MOVWQSX AX, R13
	SUBQ pass16_gapO(R8), R13          // F
	VPEXTRW $7, X1, AX
	MOVWQSX AX, AX                     // hLeft
	TESTQ R15, R15
	JZ   spill

tail:
	// The last count%8 columns; BX = hDiag, AX = hLeft, R13 = F.
	MOVWQSX (DI), R9                   // Hp
	MOVWQSX (SI), R10
	SUBQ pass16_ge(R8), R10
	MOVQ R9, CX
	SUBQ pass16_goe(R8), CX
	CMPQ CX, R10
	CMOVQGT CX, R10                    // E
	MOVW R10, (SI)
	SUBQ pass16_ge(R8), R13
	MOVQ AX, CX
	SUBQ pass16_goe(R8), CX
	CMPQ CX, R13
	CMOVQGT CX, R13                    // F
	MOVWQSX (DX), CX
	ADDQ BX, CX
	CMPQ R10, CX
	CMOVQGT R10, CX
	CMPQ R13, CX
	CMOVQGT R13, CX                    // H
	MOVQ R9, BX
	MOVW CX, (DI)
	MOVQ CX, AX
	CMPQ CX, R14
	CMOVQGT CX, R14
	ADDQ $2, DI
	ADDQ $2, SI
	ADDQ $2, DX
	DECQ R15
	JNZ  tail

spill:
	// R14 = rowBest, AX = H and R13 = F of column endRow (or the
	// stand-in the vectors leave, which the spill maps alike). The F spill
	// follows the insertion state right of the window, up to the
	// band's edge, while it can still reach T = max(best, rowBest) -
	// zdrop. R15 = rowArg (0: the window's maximum), CX ends as the
	// last valid column.
	MOVQ pass16_h(R8), R9
	MOVQ pass16_e(R8), R10
	XORQ R15, R15
	MOVQ pass16_endRow(R8), CX
	CMPB pass16_shrinking(R8), $0
	JEQ  argmax
	CMPQ CX, pass16_n(R8)
	JGE  argmax
	MOVQ pass16_best(R8), SI
	CMPQ R14, SI
	CMOVQGT R14, SI
	SUBQ pass16_zdrop(R8), SI          // T
	MOVQ pass16_m(R8), DX
	SUBQ R11, DX                       // remR
	MOVQ pass16_n(R8), DI              // last
	MOVQ pass16_w(R8), BX
	TESTQ BX, BX
	JS   spillFrom
	ADDQ R11, BX
	CMPQ BX, DI
	CMOVQLT BX, DI

spillFrom:
	INCQ CX

spillCol:
	CMPQ CX, DI
	JGT  spillEnd
	SUBQ pass16_ge(R8), R13
	MOVQ AX, BX
	SUBQ pass16_goe(R8), BX
	CMPQ BX, R13
	CMOVQGT BX, R13                    // F
	MOVQ pass16_n(R8), BX
	SUBQ CX, BX
	CMPQ DX, BX
	CMOVQLT DX, BX                     // rem
	IMULQ pass16_stepGain(R8), BX
	ADDQ R13, BX
	CMPQ BX, SI
	JLT  spillEnd
	MOVW R13, (R9)(CX*2)
	MOVW $const_negInf16, (R10)(CX*2)
	MOVQ R13, AX
	CMPQ R13, R14
	JLE  spillNext
	MOVQ R13, R14
	MOVQ CX, R15

spillNext:
	INCQ CX
	JMP  spillCol

spillEnd:
	DECQ CX

argmax:
	// A row maximum above best moves the best cell: the spill column
	// that holds it, else the window's first column holding it, found
	// sixteen columns per VPCMPEQW.
	CMPQ R14, pass16_best(R8)
	JLE  zdrop
	TESTQ R15, R15
	JNZ  raise
	VMOVD R14, X0
	VPBROADCASTW X0, Y0
	MOVQ R12, R15
	MOVQ pass16_endRow(R8), DX

scanVec:
	LEAQ 15(R15), BX
	CMPQ BX, DX
	JGT  scanCol
	VPCMPEQW (R9)(R15*2), Y0, Y1
	VPMOVMSKB Y1, BX
	TESTL BX, BX
	JNZ  scanHit
	ADDQ $16, R15
	JMP  scanVec

scanHit:
	BSFL BX, BX
	SHRQ $1, BX
	ADDQ BX, R15
	JMP  raise

scanCol:
	CMPQ R15, DX
	JGT  raise
	MOVWQSX (R9)(R15*2), BX
	CMPQ BX, R14
	JEQ  raise
	INCQ R15
	JMP  scanCol

raise:
	MOVQ R14, pass16_best(R8)
	MOVQ R11, pass16_bi(R8)
	MOVQ R15, pass16_bj(R8)
	MOVQ R11, BX
	SUBQ R15, BX
	MOVQ BX, DX
	NEGQ DX
	CMPQ BX, DX
	CMOVQLT DX, BX                     // |i - rowArg|
	CMPQ BX, pass16_maxOff(R8)
	JLE  zdrop
	MOVQ BX, pass16_maxOff(R8)

zdrop:
	MOVQ R11, pass16_rows(R8)
	MOVQ pass16_zdrop(R8), BX
	TESTQ BX, BX
	JS   next
	MOVQ pass16_best(R8), DX
	SUBQ BX, DX
	CMPQ R14, DX
	JLT  done

next:
	MOVQ CX, R13                       // endValid
	CMPB pass16_shrinking(R8), $0
	JEQ  row
	MOVQ pass16_m(R8), DX
	CMPQ R11, DX
	JGE  row

	// Shrink the window for the next row against T = best - zdrop
	// (SI) with remR = m-i-1 rows after it (DX): drop a column while
	// max(h, e, h to its left) plus (min(remR, n-col)+1)*stepGain
	// cannot reach T, from the right end, then from the left.
	SUBQ R11, DX
	DECQ DX
	MOVQ pass16_best(R8), SI
	SUBQ pass16_zdrop(R8), SI
	MOVQ pass16_n(R8), R14

shrinkEnd:
	CMPQ R13, R12
	JLT  shrinkBeg
	MOVWQSX (R9)(R13*2), BX
	MOVWQSX (R10)(R13*2), DI
	CMPQ DI, BX
	CMOVQGT DI, BX
	MOVWQSX -2(R9)(R13*2), DI
	CMPQ DI, BX
	CMOVQGT DI, BX
	MOVQ R14, DI
	SUBQ R13, DI
	CMPQ DX, DI
	CMOVQLT DX, DI
	INCQ DI
	IMULQ pass16_stepGain(R8), DI
	ADDQ DI, BX
	CMPQ BX, SI
	JGE  shrinkBeg
	MOVW $const_negInf16, (R9)(R13*2)
	MOVW $const_negInf16, (R10)(R13*2)
	DECQ R13
	JMP  shrinkEnd

shrinkBeg:
	CMPQ R12, R13
	JGT  shrunk
	MOVWQSX (R9)(R12*2), BX
	MOVWQSX (R10)(R12*2), DI
	CMPQ DI, BX
	CMOVQGT DI, BX
	MOVWQSX -2(R9)(R12*2), DI
	CMPQ DI, BX
	CMOVQGT DI, BX
	MOVQ R14, DI
	SUBQ R12, DI
	CMPQ DX, DI
	CMOVQLT DX, DI
	INCQ DI
	IMULQ pass16_stepGain(R8), DI
	ADDQ DI, BX
	CMPQ BX, SI
	JGE  row
	MOVW $const_negInf16, (R9)(R12*2)
	MOVW $const_negInf16, (R10)(R12*2)
	INCQ R12
	JMP  shrinkBeg

shrunk:
	// The next row has no viable cell: the reference computes it,
	// triggers the z-drop, and stops there.
	LEAQ 1(R11), BX
	MOVQ BX, pass16_rows(R8)
	JMP  done

bandLeft:
	// The band has left the read: this row and every later one are
	// empty, so the z-drop fires here (best - zdrop > negInf) or never.
	MOVQ pass16_m(R8), BX
	MOVQ pass16_zdrop(R8), DX
	TESTQ DX, DX
	JS   bandRows
	MOVQ pass16_best(R8), SI
	SUBQ DX, SI
	CMPQ SI, $const_negInf
	CMOVQGT R11, BX

bandRows:
	MOVQ BX, pass16_rows(R8)

done:
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
