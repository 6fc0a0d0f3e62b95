#include "textflag.h"

// The XTS-AES kernel for CPUs with AES-NI. One call runs every sector of an
// EncryptBlocks/DecryptBlocks call: sector tweaks eight at a time, then each
// sector's blocks eight at a time (seven or fewer left over go one by one),
// the tweak doubled and XOR-ed in registers. Registers:
//
//	AX  data key schedule         X0-X7  eight blocks (or sector tweaks)
//	BX  tweak key schedule        X8     current tweak
//	CX  16 * rounds               X9     alphaMask
//	DX  sectors not yet batched   X10    scratch of ALPHA
//	SI  src, DI dst               X15    the round key in use
//	R8  blocks per sector         R9     next sector number to batch
//	R10 blocks left in sector     R11    next tweak in the sector table
//	R12 sectors left in batch     R13    decrypt
//
// Stack: 0(SP)-127(SP) the tweaks of the group in flight, 128(SP)-255(SP)
// the sector tweaks of the batch.

// ALPHA multiplies the tweak in X8 by alpha in GF(2^128): both qwords shift
// left by one, and the bits they shift out come back through alphaMask
// (0x87 into the low qword for bit 127, 1 into the high one for bit 63),
// selected by the sign of the dwords PSHUFD moves into their place.
DATA alphaMask<>+0(SB)/8, $0x87
DATA alphaMask<>+8(SB)/8, $1
GLOBL alphaMask<>(SB), RODATA|NOPTR, $16

#define ALPHA \
	PSHUFD $0x13, X8, X10; \
	PADDQ  X8, X8; \
	PSRAL  $31, X10; \
	PAND   X9, X10; \
	PXOR   X10, X8

#define ROUND8(op, key) \
	MOVOU key, X15; \
	op    X15, X0; \
	op    X15, X1; \
	op    X15, X2; \
	op    X15, X3; \
	op    X15, X4; \
	op    X15, X5; \
	op    X15, X6; \
	op    X15, X7

// CRYPT8 runs X0-X7 through all rounds of schedule ks; L labels the last.
#define CRYPT8(op, oplast, ks, L) \
	ROUND8(PXOR, (ks)); \
	ROUND8(op, 16(ks)); \
	ROUND8(op, 32(ks)); \
	ROUND8(op, 48(ks)); \
	ROUND8(op, 64(ks)); \
	ROUND8(op, 80(ks)); \
	ROUND8(op, 96(ks)); \
	ROUND8(op, 112(ks)); \
	ROUND8(op, 128(ks)); \
	ROUND8(op, 144(ks)); \
	CMPQ CX, $160; \
	JEQ  L; \
	ROUND8(op, 160(ks)); \
	ROUND8(op, 176(ks)); \
	ROUND8(op, 192(ks)); \
	ROUND8(op, 208(ks)); \
L: \
	ROUND8(oplast, (ks)(CX*1))

#define ROUND1(op, key) \
	MOVOU key, X15; \
	op    X15, X0

#define CRYPT1(op, oplast, ks, L) \
	ROUND1(PXOR, (ks)); \
	ROUND1(op, 16(ks)); \
	ROUND1(op, 32(ks)); \
	ROUND1(op, 48(ks)); \
	ROUND1(op, 64(ks)); \
	ROUND1(op, 80(ks)); \
	ROUND1(op, 96(ks)); \
	ROUND1(op, 112(ks)); \
	ROUND1(op, 128(ks)); \
	ROUND1(op, 144(ks)); \
	CMPQ CX, $160; \
	JEQ  L; \
	ROUND1(op, 160(ks)); \
	ROUND1(op, 176(ks)); \
	ROUND1(op, 192(ks)); \
	ROUND1(op, 208(ks)); \
L: \
	ROUND1(oplast, (ks)(CX*1))

// LOAD loads source block off of the group into x XOR the tweak, keeps the
// tweak at off(SP) and doubles it.
#define LOAD(x, off) \
	MOVOU X8, off(SP); \
	MOVOU off(SI), x; \
	PXOR  X8, x; \
	ALPHA

// STORE XORs the block's tweak back in and stores it.
#define STORE(x, off) \
	MOVOU off(SP), X15; \
	PXOR  X15, x; \
	MOVOU x, off(DI)

// func cpuidECX(leaf uint32) uint32
TEXT ·cpuidECX(SB), NOSPLIT, $0-12
	MOVL leaf+0(FP), AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+8(FP)
	RET

// func cryptSectors(rk, tk *[schedLen]byte, rounds int, dst, src *byte, n, blocks int, first uint64, decrypt bool)
TEXT ·cryptSectors(SB), NOSPLIT, $256-65
	MOVQ    rk+0(FP), AX
	MOVQ    tk+8(FP), BX
	MOVQ    rounds+16(FP), CX
	SHLQ    $4, CX
	MOVQ    dst+24(FP), DI
	MOVQ    src+32(FP), SI
	MOVQ    n+40(FP), DX
	MOVQ    blocks+48(FP), R8
	MOVQ    first+56(FP), R9
	MOVBQZX decrypt+64(FP), R13
	MOVOU   alphaMask<>(SB), X9

batch:
	// Encrypt the next eight sector numbers with the tweak key; lanes past
	// the last sector are computed and never read.
	MOVQ R9, X0
	LEAQ 1(R9), R10
	MOVQ R10, X1
	LEAQ 2(R9), R10
	MOVQ R10, X2
	LEAQ 3(R9), R10
	MOVQ R10, X3
	LEAQ 4(R9), R10
	MOVQ R10, X4
	LEAQ 5(R9), R10
	MOVQ R10, X5
	LEAQ 6(R9), R10
	MOVQ R10, X6
	LEAQ 7(R9), R10
	MOVQ R10, X7
	CRYPT8(AESENC, AESENCLAST, BX, tweaklast)
	MOVOU X0, 128(SP)
	MOVOU X1, 144(SP)
	MOVOU X2, 160(SP)
	MOVOU X3, 176(SP)
	MOVOU X4, 192(SP)
	MOVOU X5, 208(SP)
	MOVOU X6, 224(SP)
	MOVOU X7, 240(SP)
	MOVQ  $8, R12
	CMPQ  DX, R12
	CMOVQLT DX, R12
	SUBQ  R12, DX
	ADDQ  R12, R9
	LEAQ  128(SP), R11

sector:
	MOVOU (R11), X8
	ADDQ  $16, R11
	MOVQ  R8, R10

group:
	// Every block of the group is loaded before any is stored, so dst may
	// be src.
	CMPQ R10, $8
	JLT  tail
	LOAD(X0, 0)
	LOAD(X1, 16)
	LOAD(X2, 32)
	LOAD(X3, 48)
	LOAD(X4, 64)
	LOAD(X5, 80)
	LOAD(X6, 96)
	LOAD(X7, 112)
	TESTQ R13, R13
	JNZ   group_dec
	CRYPT8(AESENC, AESENCLAST, AX, enc8last)
	JMP   group_out

group_dec:
	CRYPT8(AESDEC, AESDECLAST, AX, dec8last)

group_out:
	STORE(X0, 0)
	STORE(X1, 16)
	STORE(X2, 32)
	STORE(X3, 48)
	STORE(X4, 64)
	STORE(X5, 80)
	STORE(X6, 96)
	STORE(X7, 112)
	ADDQ $128, SI
	ADDQ $128, DI
	SUBQ $8, R10
	JMP  group

tail:
	TESTQ R10, R10
	JZ    next
	MOVOU (SI), X0
	PXOR  X8, X0
	TESTQ R13, R13
	JNZ   tail_dec
	CRYPT1(AESENC, AESENCLAST, AX, enc1last)
	JMP   tail_out

tail_dec:
	CRYPT1(AESDEC, AESDECLAST, AX, dec1last)

tail_out:
	PXOR  X8, X0
	MOVOU X0, (DI)
	ALPHA
	ADDQ  $16, SI
	ADDQ  $16, DI
	DECQ  R10
	JMP   tail

next:
	DECQ  R12
	JNZ   sector
	TESTQ DX, DX
	JNZ   batch
	RET
