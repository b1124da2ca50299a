#include "textflag.h"

// BOUND loads 16 packed words of one channel's item row and level row,
// whose pointers lie at ioff(BX) and loff(BX), from byte offset SI
// under the lane mask K1 (zeroing the lanes past the vector), and
// leaves their XOR, the channel's bound words, in reg. Clobbers R8, R9
// and Z31.
#define BOUND(ioff, loff, reg) \
	MOVQ        ioff(BX), R8; \
	MOVQ        loff(BX), R9; \
	VMOVDQU32.Z (R8)(SI*1), K1, reg; \
	VMOVDQU32.Z (R9)(SI*1), K1, Z31; \
	VPXORD      Z31, reg, reg

// FULLADD leaves in a the sum bits of a+b+c (imm 0x96, a three-way
// XOR) and in carry their carry bits (imm 0xE8, the majority of three).
#define FULLADD(a, b, c, carry) \
	VMOVDQA64  a, carry; \
	VPTERNLOGQ $0xE8, c, b, carry; \
	VPTERNLOGQ $0x96, c, b, a

// func bindMajorityAVX512(dst *uint32, nw int, rows *[2 * maxCSAChannels]*uint32, c int)
//
// DI is dst; CX counts the packed words left and SI is the byte offset
// of the current 16-word (512-bit) step in every vector. BX is rows:
// channel i's item row at 16i(BX), its level row at 16i+8(BX). DX is
// the channel count, 2–7. K1 masks the step's words: all sixteen, then
// the 1–15 of a partial last step, which is loaded zeroed above the
// vector and stored masked, so no word past any vector is read or
// written. Z0–Z6 hold the bound words and the §5.1 tie word (Z0 ⊕ Z1)
// of an even count; the majority ends in Z0.
TEXT ·bindMajorityAVX512(SB), NOSPLIT, $0-32
	MOVQ  dst+0(FP), DI
	MOVQ  nw+8(FP), CX
	MOVQ  rows+16(FP), BX
	MOVQ  c+24(FP), DX
	XORQ  SI, SI
	MOVL  $0xffff, AX
	KMOVW AX, K1
	TESTQ CX, CX
	JZ    done

step:
	CMPQ  CX, $16
	JAE   bound
	MOVL  $1, AX
	SHLL  CX, AX
	DECL  AX
	KMOVW AX, K1

bound:
	BOUND(0, 8, Z0)
	BOUND(16, 24, Z1)
	CMPQ DX, $3
	JB   tie3
	BOUND(32, 40, Z2)
	JE   maj3
	BOUND(48, 56, Z3)
	CMPQ DX, $5
	JB   tie5
	BOUND(64, 72, Z4)
	JE   maj5
	BOUND(80, 88, Z5)
	CMPQ DX, $7
	JB   tie7
	BOUND(96, 104, Z6)
	JMP  maj7

tie3:
	VPXORQ Z1, Z0, Z2
	JMP    maj3

tie5:
	VPXORQ Z1, Z0, Z4
	JMP    maj5

tie7:
	VPXORQ Z1, Z0, Z6

maj7:
	// count = s + 2(c1+c2+c3) with s ≤ 1, so count ≥ 4 is the majority
	// of the three carries.
	FULLADD(Z0, Z1, Z2, Z8)
	FULLADD(Z3, Z4, Z5, Z9)
	VPTERNLOGQ $0xE8, Z6, Z3, Z0
	VPTERNLOGQ $0xE8, Z9, Z8, Z0
	JMP        store

maj5:
	// count = s2 + 2(c1+c2): count ≥ 3 is the majority of c1, c2, s2.
	FULLADD(Z0, Z1, Z2, Z8)
	FULLADD(Z0, Z3, Z4, Z9)
	VPTERNLOGQ $0xE8, Z9, Z8, Z0
	JMP        store

maj3:
	VPTERNLOGQ $0xE8, Z2, Z1, Z0

store:
	VMOVDQU32 Z0, K1, (DI)(SI*1)
	ADDQ      $64, SI
	SUBQ      $16, CX
	JG        step

done:
	VZEROUPPER
	RET
