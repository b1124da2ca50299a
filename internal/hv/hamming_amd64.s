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

// func hammingVPOPCNTDQ(a, b *uint32, n, bound int) int
//
// SI, DI walk a and b; CX counts the word pairs left; R8 holds the
// bound; AX is the running distance.
TEXT ·hammingVPOPCNTDQ(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), SI
	MOVQ b+8(FP), DI
	MOVQ n+16(FP), CX
	MOVQ bound+24(FP), R8
	XORQ AX, AX
	CMPQ CX, $32
	JB   rest

step32:
	// 32 pairs: four 512-bit loads from each side, XOR, VPOPCNTQ,
	// then one horizontal sum into AX for the bound check.
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
	HSUM
	ADDQ      $256, SI
	ADDQ      $256, DI
	SUBQ      $32, CX
	CMPQ      AX, R8
	JGE       done
	CMPQ      CX, $32
	JAE       step32

rest:
	// Fewer than 32 pairs left: 8-pair vector steps summed in Z4,
	// then the scalar tail. Neither checks the bound.
	VPXORQ Z4, Z4, Z4
	CMPQ   CX, $8
	JB     sum8

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
	MOVQ AX, ret+32(FP)
	RET
