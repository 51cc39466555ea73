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

// SCAN leaves in Y0 the decayed inclusive prefix max of the X in Y1,
// max over k <= lane of X[k] - ge*(lane-k), using Y2.
#define SCAN \
	VPALIGNR $14, Y15, Y1, Y2; \
	VPSUBSW Y14, Y2, Y2; \
	VPMAXSW Y2, Y1, Y0; \
	VPALIGNR $12, Y15, Y0, Y2; \
	VPSUBSW Y13, Y2, Y2; \
	VPMAXSW Y2, Y0, Y0; \
	VPALIGNR $8, Y15, Y0, Y2; \
	VPSUBSW Y12, Y2, Y2; \
	VPMAXSW Y2, Y0, Y0; \
	VPSHUFB Y4, Y0, Y2; \
	VPERM2I128 $0x20, Y2, Y15, Y2; \
	VPSUBSW Y11, Y2, Y2; \
	VPMAXSW Y2, Y0, Y0

// ALLOW leaves in Y0 the shrink's allowance of columns DI..DI+15,
// (min(remR, n-col)+1)*stepGain, from Y6 = (remR+1)*stepGain, using AX.
#define ALLOW \
	MOVQ R14, AX; \
	SUBQ DI, AX; \
	INCQ AX; \
	IMULQ pass16_stepGain(R8), AX; \
	VMOVD AX, X0; \
	VPBROADCASTW X0, Y0; \
	VPSUBW pass16_kStep(R8), Y0, Y0; \
	VPMINSW Y6, Y0, Y0

// func passAVX2w16(p *pass16)
//
// extendPass's row loop over int16 rows, rows 1..p.m, in one call.
// Registers across rows: R8 = p, R9 = h, R10 = e, R11 = i, R12 = beg,
// R13 = endValid (endRow within a row), R14 = n and R15 = the column-0
// boundary hBase - i*ge. The constants stay in Y4, Y7 and Y9..Y15 for
// the whole pass.
//
// The row is rowAVX2's recurrence in sixteen lanes, in a shift-free
// form: F'[j] = F[j+1] + goe = max(F'[j-1] - ge, X[j]) is a decayed
// inclusive prefix max of X, and H = max(X, F' - GapOpen). The
// diagonal H is an unaligned load one column left (D), made a vector
// ahead, before the vector's H is stored. Adds and subtracts saturate,
// so the -32768 fill and deep decays clamp instead of wrapping; narrow
// keeps every value the row stores above -32768. The scan runs in each
// 128-bit half with VPALIGNR filled from -32768 (shifts 1, 2, 4), then
// one VPSHUFB+VPERM2I128 step joins the halves: lanes 8..15 take
// max(S, S[7] - ge*(lane-7)). The F' carry, the previous vector's lane
// 15 broadcast by VPSHUFB+VPERMQ, enters as cF' - ge*(lane+1), off the
// scan's chain. The row's last 1-15 columns run as one more sixteen-lane
// step whose lanes past endRow keep their old H and E and are dead to
// the row maximum, so h, e and each profile row must hold 15 columns
// past n. No F state leaves the row (see extendPass).
//
// The shrink tests sixteen columns per compare against T = best - zdrop
// with the per-lane allowance; from the right every column reads its own
// left neighbour, from the left only the first does (the rest follow a
// dropped, dead column), and it loops over vectors only while all
// sixteen drop.
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
	MOVQ pass16_h(R8), R9
	MOVQ pass16_e(R8), R10
	XORQ R11, R11
	MOVQ pass16_beg(R8), R12
	MOVQ pass16_endValid(R8), R13
	MOVQ pass16_n(R8), R14
	MOVQ pass16_hBase(R8), R15

row:
	INCQ R11
	CMPQ R11, pass16_m(R8)
	JGT  done
	SUBQ pass16_ge(R8), R15

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

	// D (Y8) = h[beg-1..beg+14], the first vector's diagonal H, read
	// before h[0] takes hLeft (AX): dead unless beg = 1, where it is the
	// boundary inside the band (w < 0 or i <= w) and dead past it.
	LEAQ (R9)(R12*2), DI               // &h[beg]
	LEAQ (R10)(R12*2), SI              // &e[beg]
	VMOVDQU -2(DI), Y8
	MOVQ $const_negInf16, AX
	CMPQ R12, $1
	JNE  operands
	MOVQ pass16_w(R8), BX
	TESTQ BX, BX
	JS   bound
	CMPQ R11, BX
	JGT  left

bound:
	MOVQ R15, AX

left:
	MOVW AX, (R9)

operands:
	MOVQ pass16_ref(R8), DX
	MOVBQZX -1(DX)(R11*1), DX          // ref[i-1]
	MOVQ pass16_prof(R8)(DX*8), DX
	LEAQ -2(DX)(R12*2), DX             // &prof[ref[i-1]][beg-1]

	// The F carry into the first column, F(beg)+goe = max(dead-ge,
	// hLeft-goe)+goe.
	MOVQ pass16_gapO(R8), BX
	ADDQ $const_negInf16, BX
	CMPQ AX, BX
	CMOVQGT AX, BX
	VMOVD BX, X6
	VPBROADCASTW X6, Y6                // cF'
	VMOVDQU pass16_kDead(R8), Y5       // row maximum
	MOVQ R13, CX
	SUBQ R12, CX
	INCQ CX                            // columns
	MOVQ CX, BX
	ANDQ $15, BX                       // columns after the whole vectors
	SHRQ $4, CX
	JZ   last

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
	SCAN
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

last:
	// The last BX columns as one sixteen-lane step; Y6 marks the lanes
	// past endRow.
	TESTQ BX, BX
	JZ   reduce
	VPSUBSW Y10, Y6, Y3
	NEGQ BX
	VMOVDQU pass16_kMask+32(R8)(BX*2), Y6
	VMOVDQU (DI), Y0
	VPSUBSW Y9, Y0, Y1
	VMOVDQU (SI), Y2
	VPSUBSW Y14, Y2, Y2
	VPMAXSW Y2, Y1, Y1                 // E
	VPBLENDVB Y6, (SI), Y1, Y2
	VMOVDQU Y2, (SI)
	VPADDSW (DX), Y8, Y2
	VPMAXSW Y2, Y1, Y1                 // X
	SCAN
	VPMAXSW Y3, Y0, Y0
	VPSUBSW Y7, Y0, Y0
	VPMAXSW Y0, Y1, Y1                 // H
	VPBLENDVB Y6, (DI), Y1, Y0
	VMOVDQU Y0, (DI)
	VPBLENDVB Y6, pass16_kDead(R8), Y1, Y1
	VPMAXSW Y1, Y5, Y5

reduce:
	VEXTRACTI128 $1, Y5, X0
	VPMAXSW X0, X5, X5
	VPSHUFD $0x4e, X5, X0
	VPMAXSW X0, X5, X5
	VPSHUFD $0xb1, X5, X0
	VPMAXSW X0, X5, X5
	VPSRLD $16, X5, X0
	VPMAXSW X0, X5, X5
	VMOVD X5, AX
	MOVWQSX AX, AX                     // row maximum

	// A row maximum above best moves the best cell to the first column
	// holding it, found sixteen columns per VPCMPEQW; the window holds
	// one, so the scan ends by endRow.
	CMPQ AX, pass16_best(R8)
	JLE  zdrop
	VPBROADCASTW X5, Y0
	MOVQ R12, CX

scan:
	VPCMPEQW (R9)(CX*2), Y0, Y1
	VPMOVMSKB Y1, BX
	TESTL BX, BX
	JNZ  hit
	ADDQ $16, CX
	JMP  scan

hit:
	BSFL BX, BX
	SHRQ $1, BX
	ADDQ BX, CX                        // rowArg
	MOVQ AX, pass16_best(R8)
	MOVQ R11, pass16_bi(R8)
	MOVQ CX, pass16_bj(R8)
	SUBQ R11, CX
	MOVQ CX, BX
	NEGQ BX
	CMOVQLT CX, BX                     // |i - rowArg|
	CMPQ BX, pass16_maxOff(R8)
	JLE  zdrop
	MOVQ BX, pass16_maxOff(R8)

zdrop:
	MOVQ R11, pass16_rows(R8)
	MOVQ pass16_zdrop(R8), BX
	TESTQ BX, BX
	JS   row                           // no z-drop, and so no shrink
	MOVQ pass16_best(R8), DX
	SUBQ BX, DX                        // T
	CMPQ AX, DX
	JLT  done
	CMPB pass16_shrinking(R8), $0
	JEQ  row
	CMPQ R11, pass16_m(R8)
	JGE  row

	// Shrink the window for the next row against T (Y5) with remR =
	// m-i-1 rows after it: a column drops when max(h, e, h to its left)
	// + (min(remR, n-col)+1)*stepGain < T.
	VMOVD DX, X5
	VPBROADCASTW X5, Y5
	MOVQ pass16_m(R8), AX
	SUBQ R11, AX
	IMULQ pass16_stepGain(R8), AX
	VMOVD AX, X6
	VPBROADCASTW X6, Y6                // (remR+1)*stepGain

shrinkEnd:
	// Columns p..endValid, p = beg + 16k, the last vector of the row: the
	// new end is the last column kept. Dropped columns keep their values;
	// the next row stores dead into the column it grows by.
	CMPQ R13, R12
	JLT  shrunk
	MOVQ R13, DI
	SUBQ R12, DI
	ANDQ $-16, DI
	ADDQ R12, DI
	ALLOW
	VMOVDQU (R9)(DI*2), Y1
	VMOVDQU (R10)(DI*2), Y2
	VPMAXSW Y2, Y1, Y3
	VPBROADCASTW -2(R9)(DI*2), Y8
	VPERM2I128 $0x20, Y1, Y8, Y8
	VPALIGNR $14, Y8, Y1, Y8           // h one column left
	VPMAXSW Y8, Y3, Y3
	VPADDSW Y0, Y3, Y3
	VPCMPGTW Y3, Y5, Y3                // dropped
	MOVQ DI, BX
	SUBQ R13, BX
	VPOR pass16_kMask+30(R8)(BX*2), Y3, Y3 // or past endValid
	VPMOVMSKB Y3, AX
	NOTL AX
	SHLQ $2, AX
	ORQ  $2, AX
	BSRQ AX, AX
	SHRQ $1, AX                        // the last lane kept + 1, or 0
	LEAQ -1(DI)(AX*1), R13
	TESTQ AX, AX
	JZ   shrinkEnd                     // all dropped: the sixteen before

shrinkBeg:
	// Columns beg..beg+15 up to endValid: the new beg is the first
	// column kept, and the ones before it are dead.
	MOVQ R12, DI
	ALLOW
	VMOVDQU (R9)(DI*2), Y1
	VMOVDQU (R10)(DI*2), Y2
	VPMAXSW Y2, Y1, Y3
	VPBROADCASTW -2(R9)(DI*2), Y8
	VPBLENDW $1, Y8, Y15, Y8
	VPBLENDD $0x0f, Y8, Y15, Y8        // h[beg-1] in lane 0 only
	VPMAXSW Y8, Y3, Y3
	VPADDSW Y0, Y3, Y3
	VPCMPGTW Y3, Y5, Y3                // dropped
	MOVQ DI, BX
	SUBQ R13, BX
	MOVQ $-15, CX
	CMPQ BX, CX
	CMOVQLT CX, BX
	VMOVDQU pass16_kMask+30(R8)(BX*2), Y0 // lanes past endValid
	VPANDN Y3, Y0, Y3                  // dropped, up to endValid
	VPMOVMSKB Y3, AX
	NOTL AX
	BTSQ $32, AX
	BSFQ AX, AX
	SHRQ $1, AX                        // the first lane kept or past endValid, or 16
	JZ   row
	ADDQ AX, R12
	NEGQ AX
	VMOVDQU pass16_kMask+64(R8)(AX*2), Y3
	VPBLENDVB Y3, pass16_kDead(R8), Y1, Y1
	VMOVDQU Y1, (R9)(DI*2)
	VPBLENDVB Y3, pass16_kDead(R8), Y2, Y2
	VMOVDQU Y2, (R10)(DI*2)
	CMPQ R12, R13
	JGT  shrunk
	CMPQ AX, $-16
	JEQ  shrinkBeg                     // all sixteen dropped: the next sixteen
	JMP  row

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
