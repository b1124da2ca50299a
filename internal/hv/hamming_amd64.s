#include "textflag.h"

// func cpuid(leaf, subleaf uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL subleaf+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax, edx uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-8
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET

// HSUM adds the eight uint64 lanes of Z0 into AX. Clobbers Z0, Z1, DX.
#define HSUM \
	VEXTRACTI64X4 $1, Z0, Y1; \
	VPADDQ        Y1, Y0, Y0; \
	VEXTRACTI128  $1, Y0, X1; \
	VPADDQ        X1, X0, X0; \
	VPSHUFD       $0x4e, X0, X1; \
	VPADDQ        X1, X0, X0; \
	VMOVQ         X0, DX; \
	ADDQ          DX, AX

// func hammingVPOPCNTDQ(a, b *uint32, n int) int
//
// SI, DI walk a and b; CX counts the word pairs left; Z4 sums the
// lanes; AX is the distance.
TEXT ·hammingVPOPCNTDQ(SB), NOSPLIT, $0-32
	MOVQ   a+0(FP), SI
	MOVQ   b+8(FP), DI
	MOVQ   n+16(FP), CX
	XORQ   AX, AX
	VPXORQ Z4, Z4, Z4
	CMPQ   CX, $32
	JB     rest

step32:
	// 32 pairs: four 512-bit loads from each side, XOR, VPOPCNTQ.
	VMOVDQU64 (SI), Z0
	VMOVDQU64 64(SI), Z1
	VMOVDQU64 128(SI), Z2
	VMOVDQU64 192(SI), Z3
	VPXORQ    (DI), Z0, Z0
	VPXORQ    64(DI), Z1, Z1
	VPXORQ    128(DI), Z2, Z2
	VPXORQ    192(DI), Z3, Z3
	VPOPCNTQ  Z0, Z0
	VPOPCNTQ  Z1, Z1
	VPOPCNTQ  Z2, Z2
	VPOPCNTQ  Z3, Z3
	VPADDQ    Z1, Z0, Z0
	VPADDQ    Z3, Z2, Z2
	VPADDQ    Z2, Z0, Z0
	VPADDQ    Z0, Z4, Z4
	ADDQ      $256, SI
	ADDQ      $256, DI
	SUBQ      $32, CX
	CMPQ      CX, $32
	JAE       step32

rest:
	// Fewer than 32 pairs left: 8-pair vector steps, the horizontal
	// sum, then the scalar tail.
	CMPQ CX, $8
	JB   sum8

step8:
	VMOVDQU64 (SI), Z0
	VPXORQ    (DI), Z0, Z0
	VPOPCNTQ  Z0, Z0
	VPADDQ    Z0, Z4, Z4
	ADDQ      $64, SI
	ADDQ      $64, DI
	SUBQ      $8, CX
	CMPQ      CX, $8
	JAE       step8

sum8:
	VMOVDQA64 Z4, Z0
	HSUM
	TESTQ     CX, CX
	JZ        done

step1:
	MOVQ    (SI), DX
	XORQ    (DI), DX
	POPCNTQ DX, DX
	ADDQ    DX, AX
	ADDQ    $8, SI
	ADDQ    $8, DI
	DECQ    CX
	JNZ     step1

done:
	VZEROUPPER
	MOVQ AX, ret+24(FP)
	RET

// SCORE adds to Z0 the distances of the eight lanes of the block line
// at off(DI) to the query uint64 at qoff(AX). Clobbers Z1.
#define SCORE(qoff, off) \
	VPBROADCASTQ qoff(AX), Z1; \
	VPXORQ       off(DI), Z1, Z1; \
	VPOPCNTQ     Z1, Z1; \
	VPADDQ       Z1, Z0, Z0

// func nearestVPOPCNTDQ(q *uint32, nw int, blocks *[]uint64, nblocks, lanes int) (index, distance int)
//
// SI is the query; R8 counts its full 8-word steps, R9 the uint64
// words after them, and bit 0 of R10 marks an odd last packed word.
// BX walks the block slice headers and R11 counts the blocks left; R12
// is the row of the current block's lane 0. Every block ends in its 64
// uint32 bounds, R15 bytes past its start. R13 is the best distance,
// broadcast in Z6 (and, as int32, in Z24), and R14 its row. Per block,
// DI walks the lines, AX the query, CX the steps, and Z0 holds the
// eight partial distances. K2 marks the lanes of the last block past
// the slab's last row; they start at unreached (Z7), the initial best,
// so they never keep a block alive and never win. K3 marks the rows of
// the current block the anchors leave alive, all eight in block 0, and
// masks every compare against the best; K4 is 0xff. Once block 0 is
// scored, and when a later block follows, Z16–Z19 hold its distances
// plus drift for anchors 2p and 2p+1 in their low and high eight int32
// lanes, and Z20–Z23 its distances minus drift. The 64-byte frame
// receives Z0 when a block scores all its words.
TEXT ·nearestVPOPCNTDQ(SB), NOSPLIT, $64-56
	MOVQ         q+0(FP), SI
	MOVQ         nw+8(FP), R10
	MOVQ         blocks+16(FP), BX
	MOVQ         nblocks+24(FP), R11
	MOVQ         lanes+32(FP), CX
	MOVL         $0xff, DX
	KMOVW        DX, K3
	KMOVW        DX, K4
	SHLL         CX, DX
	KMOVW        DX, K2
	MOVQ         8(BX), R15
	SHLQ         $3, R15
	SUBQ         $256, R15
	MOVQ         R10, R8
	SHRQ         $1, R8
	MOVQ         R8, R9
	ANDQ         $7, R9
	SHRQ         $3, R8
	MOVQ         $0x4000000000000000, R13
	VPBROADCASTQ R13, Z6
	VMOVDQA64    Z6, Z7
	MOVQ         $-1, R14
	XORQ         R12, R12
	MOVQ         (BX), DI
	JMP          block

later:
	// Rule out the rows r of block g ≥ 1 with LB[r] ≥ best, LB[r] the
	// largest D[a][r] − hi[a] and lo[a] − D[a][r]: one load per anchor
	// pair, then the two halves folded. Skip the block if none is left.
	MOVQ          (BX), DI
	VMOVDQU32     (DI)(R15*1), Z1
	VPSUBD        Z16, Z1, Z2
	VPSUBD        Z1, Z20, Z1
	VPMAXSD       Z2, Z1, Z1
	VMOVDQU32     64(DI)(R15*1), Z2
	VPSUBD        Z17, Z2, Z3
	VPSUBD        Z2, Z21, Z2
	VPMAXSD       Z3, Z2, Z2
	VPMAXSD       Z2, Z1, Z1
	VMOVDQU32     128(DI)(R15*1), Z2
	VPSUBD        Z18, Z2, Z3
	VPSUBD        Z2, Z22, Z2
	VPMAXSD       Z3, Z2, Z2
	VPMAXSD       Z2, Z1, Z1
	VMOVDQU32     192(DI)(R15*1), Z2
	VPSUBD        Z19, Z2, Z3
	VPSUBD        Z2, Z23, Z2
	VPMAXSD       Z3, Z2, Z2
	VPMAXSD       Z2, Z1, Z1
	VEXTRACTI64X4 $1, Z1, Y2
	VPMAXSD       Z2, Z1, Z1
	VPCMPD        $1, Z24, Z1, K4, K3
	KORTESTW      K3, K3
	JZ            next

block:
	MOVQ   SI, AX
	VPXORQ Z0, Z0, Z0
	CMPQ   R11, $1
	JNE    steps
	VMOVDQA64 Z7, K2, Z0

steps:
	MOVQ  R8, CX
	TESTQ CX, CX
	JZ    tail

step:
	// One 512-bit step of eight rows, then drop the block if no live
	// lane is below the best.
	SCORE(0, 0)
	SCORE(8, 64)
	SCORE(16, 128)
	SCORE(24, 192)
	SCORE(32, 256)
	SCORE(40, 320)
	SCORE(48, 384)
	SCORE(56, 448)
	ADDQ     $64, AX
	ADDQ     $512, DI
	VPCMPUQ  $1, Z6, Z0, K3, K1
	KORTESTW K1, K1
	JZ       next
	DECQ     CX
	JNZ      step

tail:
	// The uint64 words after the last full step form one partial step.
	MOVQ  R9, CX
	TESTQ CX, CX
	JZ    odd

tail1:
	SCORE(0, 0)
	ADDQ     $8, AX
	ADDQ     $64, DI
	DECQ     CX
	JNZ      tail1
	VPCMPUQ  $1, Z6, Z0, K3, K1
	KORTESTW K1, K1
	JZ       next

odd:
	// An odd last packed word is read as 32 bits, never past the query.
	TESTQ        $1, R10
	JZ           walk
	MOVL         (AX), DX
	VPBROADCASTQ DX, Z1
	VPXORQ       (DI), Z1, Z1
	VPOPCNTQ     Z1, Z1
	VPADDQ       Z1, Z0, Z0

walk:
	// The block scored every word: take the live lanes below the best
	// in index order, each replacing it only when strictly smaller.
	VPCMPUQ   $1, Z6, Z0, K3, K1
	KMOVW     K1, DX
	TESTL     DX, DX
	JZ        next
	VMOVDQU64 Z0, (SP)

lane:
	BSFL DX, CX
	MOVQ (SP)(CX*8), AX
	CMPQ AX, R13
	JAE  cleared
	MOVQ AX, R13
	LEAQ (R12)(CX*1), R14

cleared:
	LEAL         -1(DX), DI
	ANDL         DI, DX
	JNZ          lane
	VPBROADCASTQ R13, Z6
	VPBROADCASTD R13, Z24
	TESTQ        R12, R12
	JNZ          next
	CMPQ         R11, $1
	JEQ          next

	// Block 0, always scored in full, with a later block to come: its
	// distances d0 plus and minus drift, clamped to [0, 2^31 − 1],
	// narrowed to int32 (Y9 and Y8) and spread two anchors a register,
	// Z10 holding the dword indexes 2p ×8, 2p+1 ×8.
	MOVQ         (BX), DI
	VPMOVZXDQ    (DI)(R15*1), Z8
	VPADDQ       Z8, Z0, Z9
	VPSUBQ       Z8, Z0, Z8
	VPXORQ       Z10, Z10, Z10
	VPMAXSQ      Z10, Z8, Z8
	VPMOVSQD     Z9, Y9
	VPMOVQD      Z8, Y8
	MOVL         $0xff00, DX
	KMOVW        DX, K1
	MOVL         $1, DX
	VPBROADCASTD DX, K1, Z10
	MOVL         $2, DX
	VPBROADCASTD DX, Z11
	VPERMD       Z9, Z10, Z16
	VPERMD       Z8, Z10, Z20
	VPADDD       Z11, Z10, Z10
	VPERMD       Z9, Z10, Z17
	VPERMD       Z8, Z10, Z21
	VPADDD       Z11, Z10, Z10
	VPERMD       Z9, Z10, Z18
	VPERMD       Z8, Z10, Z22
	VPADDD       Z11, Z10, Z10
	VPERMD       Z9, Z10, Z19
	VPERMD       Z8, Z10, Z23

next:
	ADDQ $24, BX
	ADDQ $8, R12
	DECQ R11
	JNZ  later
	VZEROUPPER
	MOVQ R14, index+40(FP)
	MOVQ R13, distance+48(FP)
	RET

// func anchorDistancesVPOPCNTDQ(lane, anchor *uint64, steps int, dist *[8]uint64)
//
// AX walks the row, whose uint64 words lie 64 bytes apart, and DI the
// anchors' lines in step with it; CX counts the steps, and Z0 sums the
// eight distances.
TEXT ·anchorDistancesVPOPCNTDQ(SB), NOSPLIT, $0-32
	MOVQ   lane+0(FP), AX
	MOVQ   anchor+8(FP), DI
	MOVQ   steps+16(FP), CX
	MOVQ   dist+24(FP), DX
	VPXORQ Z0, Z0, Z0

rowstep:
	SCORE(0, 0)
	SCORE(64, 64)
	SCORE(128, 128)
	SCORE(192, 192)
	SCORE(256, 256)
	SCORE(320, 320)
	SCORE(384, 384)
	SCORE(448, 448)
	ADDQ      $512, AX
	ADDQ      $512, DI
	DECQ      CX
	JNZ       rowstep
	VMOVDQU64 Z0, (DX)
	VZEROUPPER
	RET
