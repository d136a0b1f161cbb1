#include "textflag.h"

// Sign masks of the radix-4 quarter turn, applied to the swapped t3 =
// (im, re) of two butterflies: the forward −j·t3 = (im, −re) negates the
// imaginary lanes, the inverse +j·t3 = (−im, re) the real ones.
DATA fwdQuarterTurn<>+0(SB)/8, $0
DATA fwdQuarterTurn<>+8(SB)/8, $0x8000000000000000
DATA fwdQuarterTurn<>+16(SB)/8, $0
DATA fwdQuarterTurn<>+24(SB)/8, $0x8000000000000000
GLOBL fwdQuarterTurn<>(SB), RODATA|NOPTR, $32

DATA invQuarterTurn<>+0(SB)/8, $0x8000000000000000
DATA invQuarterTurn<>+8(SB)/8, $0
DATA invQuarterTurn<>+16(SB)/8, $0x8000000000000000
DATA invQuarterTurn<>+24(SB)/8, $0
GLOBL invQuarterTurn<>(SB), RODATA|NOPTR, $32

// Two complex zeros: the rows of radix4LoadAVX2 that lie past the source.
DATA zeroPair<>+0(SB)/8, $0
DATA zeroPair<>+8(SB)/8, $0
DATA zeroPair<>+16(SB)/8, $0
DATA zeroPair<>+24(SB)/8, $0
GLOBL zeroPair<>(SB), RODATA|NOPTR, $32

// func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL eaxArg+0(FP), AX
	MOVL ecxArg+4(FP), CX
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

// CMUL sets W = W·T for two complex values per register, with T read
// from memory and X, Y as scratch, as re = wr·tr − wi·ti and
// im = wi·tr + wr·ti: the products and the one rounding per sum of Go's
// complex128 multiply, without fused multiply-adds.
#define CMUL(T, W, X, Y) \
	VMOVDDUP T, X; \
	VPERMILPD $15, T, Y; \
	VMULPD X, W, X; \
	VPERMILPD $5, W, W; \
	VMULPD Y, W, Y; \
	VADDSUBPD Y, X, W

// func radix4AVX2(x []complex128, tw []complex128, inverse bool)
//
// Register use: DI = &x[0], BX = len(x) in bytes, R12 = end of x,
// SI = the stage's twiddle table, R10 = quarter in bytes, R15 = three
// quarters, R9 = block size in bytes, R11 = block start, R14 = the
// butterfly pair's first input, CX = end of the block's first quarter,
// R13 = the pair's twiddles: W1, W2, W3 for both butterflies, 96 bytes.
TEXT ·radix4AVX2(SB), NOSPLIT, $0-49
	MOVQ    x_base+0(FP), DI
	MOVQ    x_len+8(FP), BX
	SHLQ    $4, BX
	LEAQ    (DI)(BX*1), R12
	MOVQ    tw_base+24(FP), SI
	LEAQ    fwdQuarterTurn<>(SB), AX
	LEAQ    invQuarterTurn<>(SB), DX
	CMPB    inverse+48(FP), $0
	CMOVQNE DX, AX
	VMOVUPD (AX), Y15
	MOVQ    $64, R10 // the first stage run here has quarter 4

stage:
	MOVQ R10, R9
	SHLQ $2, R9
	CMPQ R9, BX
	JGT  done
	LEAQ (R10)(R10*2), R15
	MOVQ DI, R11

block:
	MOVQ SI, R13
	MOVQ R11, R14
	LEAQ (R11)(R10*1), CX

pair:
	VMOVUPD (R14), Y0        // a
	VMOVUPD (R14)(R10*1), Y1 // b
	VMOVUPD (R14)(R10*2), Y2 // c
	VMOVUPD (R14)(R15*1), Y3 // d
	CMUL(0(R13), Y1, Y4, Y5)  // b·W^k
	CMUL(32(R13), Y2, Y6, Y7) // c·W^2k
	CMUL(64(R13), Y3, Y8, Y9) // d·W^3k
	VADDPD    Y2, Y0, Y4      // t0 = a + c
	VSUBPD    Y2, Y0, Y5      // t1 = a − c
	VADDPD    Y3, Y1, Y6      // t2 = b + d
	VSUBPD    Y3, Y1, Y7      // t3 = b − d
	VPERMILPD $5, Y7, Y7
	VXORPD    Y15, Y7, Y7     // ∓j·t3
	VADDPD    Y6, Y4, Y0
	VADDPD    Y7, Y5, Y1
	VSUBPD    Y6, Y4, Y2
	VSUBPD    Y7, Y5, Y3
	VMOVUPD   Y0, (R14)
	VMOVUPD   Y1, (R14)(R10*1)
	VMOVUPD   Y2, (R14)(R10*2)
	VMOVUPD   Y3, (R14)(R15*1)
	ADDQ      $32, R14
	ADDQ      $96, R13
	CMPQ      R14, CX
	JB        pair

	ADDQ R9, R11
	CMPQ R11, R12
	JB   block

	ADDQ R15, SI // the stage's table holds three quarters of entries
	SHLQ $2, R10
	JMP  stage

done:
	VZEROUPPER
	RET

// CMULTW sets W = W·t for two complex values per register, with t's real
// part broadcast in Y12 and its imaginary part in Y13 and X, Y as scratch:
// CMUL's operation sequence for a twiddle held in registers.
#define CMULTW(W, X, Y) \
	VMULPD    Y12, W, X; \
	VPERMILPD $5, W, W; \
	VMULPD    Y13, W, Y; \
	VADDSUBPD Y, X, W

// func radix4LoadAVX2(dst []complex128, perm []int32, src []complex128, q, live int, tw []complex128, inverse bool)
//
// Register use: DI = &dst[0], BX = the pair's perm entry, CX = pairs
// left, R8 = q in bytes, SI, R9, R10, R11 = the pair's inputs in rows 0–3
// (a row past live points at zeroPair), R12–R14 = how far rows 1–3 move per
// pair (32 bytes, or 0 for a zero row), DX = the pair's first output.
TEXT ·radix4LoadAVX2(SB), NOSPLIT, $0-113
	MOVQ         dst_base+0(FP), DI
	MOVQ         perm_base+24(FP), BX
	MOVQ         perm_len+32(FP), CX
	SHRQ         $1, CX
	MOVQ         src_base+48(FP), SI
	MOVQ         q+72(FP), R8
	SHLQ         $4, R8
	MOVQ         tw_base+88(FP), AX
	VBROADCASTSD (AX), Y12
	VBROADCASTSD 8(AX), Y13
	LEAQ         fwdQuarterTurn<>(SB), AX
	LEAQ         invQuarterTurn<>(SB), DX
	CMPB         inverse+112(FP), $0
	CMOVQNE      DX, AX
	VMOVUPD      (AX), Y15
	LEAQ         (SI)(R8*1), R9
	LEAQ         (R9)(R8*1), R10
	LEAQ         (R10)(R8*1), R11
	MOVQ         $32, R12
	MOVQ         $32, R13
	MOVQ         $32, R14
	LEAQ         zeroPair<>(SB), AX
	MOVQ         live+80(FP), DX
	CMPQ         DX, $3
	JGT          loadpairs
	MOVQ         AX, R11
	XORQ         R14, R14
	CMPQ         DX, $2
	JGT          loadpairs
	MOVQ         AX, R10
	XORQ         R13, R13
	CMPQ         DX, $1
	JGT          loadpairs
	MOVQ         AX, R9
	XORQ         R12, R12

loadpairs:
	TESTQ CX, CX
	JZ    loaddone

loadpair:
	VMOVUPD    (SI), Y0   // a of r and r+1
	VMOVUPD    (R9), Y1   // b
	VMOVUPD    (R10), Y2  // c
	VMOVUPD    (R11), Y3  // d
	CMULTW(Y1, Y4, Y5)    // b·tw[0]
	CMULTW(Y2, Y6, Y7)    // c·tw[0]
	CMULTW(Y3, Y8, Y9)    // d·tw[0]
	VADDPD     Y2, Y0, Y4 // t0 = a + c
	VSUBPD     Y2, Y0, Y5 // t1 = a − c
	VADDPD     Y3, Y1, Y6 // t2 = b + d
	VSUBPD     Y3, Y1, Y7 // t3 = b − d
	VPERMILPD  $5, Y7, Y7
	VXORPD     Y15, Y7, Y7 // ∓j·t3
	VADDPD     Y6, Y4, Y0
	VADDPD     Y7, Y5, Y1
	VSUBPD     Y6, Y4, Y2
	VSUBPD     Y7, Y5, Y3
	VPERM2F128 $0x20, Y1, Y0, Y4 // X0, X1 of r
	VPERM2F128 $0x20, Y3, Y2, Y5 // X2, X3 of r
	VPERM2F128 $0x31, Y1, Y0, Y6 // X0, X1 of r+1
	VPERM2F128 $0x31, Y3, Y2, Y7 // X2, X3 of r+1
	MOVLQSX    (BX), DX
	SHLQ       $4, DX
	ADDQ       DI, DX
	VMOVUPD    Y4, (DX)
	VMOVUPD    Y5, 32(DX)
	VMOVUPD    Y6, (DX)(R8*1) // perm[r+1] = perm[r] + q
	VMOVUPD    Y7, 32(DX)(R8*1)
	ADDQ       $8, BX
	ADDQ       $32, SI
	ADDQ       R12, R9
	ADDQ       R13, R10
	ADDQ       R14, R11
	DECQ       CX
	JNZ        loadpair

loaddone:
	VZEROUPPER
	RET

// DECSTEP adds one product to the sums of two outputs in ACC: their
// samples are at SLO and SHI, their template entries at CLO and CHI. The
// product is CMUL's operation sequence, then ACC = ACC + product.
#define DECSTEP(SLO, SHI, CLO, CHI, ACC) \
	VMOVUPD     SLO, X0; \
	VINSERTF128 $1, SHI, Y0, Y0; \
	VMOVUPD     CLO, X1; \
	VINSERTF128 $1, CHI, Y1, Y1; \
	VMOVDDUP    Y1, Y2; \
	VPERMILPD   $15, Y1, Y3; \
	VMULPD      Y2, Y0, Y2; \
	VPERMILPD   $5, Y0, Y0; \
	VMULPD      Y3, Y0, Y3; \
	VADDSUBPD   Y3, Y2, Y0; \
	VADDPD      Y0, ACC, ACC

// func decimateAVX2(dst, seg, conj []complex128, d int)
//
// len(dst) is a multiple of eight. Y12–Y15 hold the sums of outputs
// (0,1), (2,3), (4,5), (6,7) of the group. Register use: BX = the group's
// first output, CX = groups left, SI and DI = the group's first sample and
// template entry, R8 = d samples in bytes (D), R9 = 3D, R10 = 5D,
// R11 = 7D, DX = d, R12 = products left per output, R13 and R14 = the
// product's sample and template entry for output 0.
TEXT ·decimateAVX2(SB), NOSPLIT, $0-80
	MOVQ dst_base+0(FP), BX
	MOVQ dst_len+8(FP), CX
	SHRQ $3, CX
	JZ   decdone
	MOVQ seg_base+24(FP), SI
	MOVQ conj_base+48(FP), DI
	MOVQ d+72(FP), DX
	MOVQ DX, R8
	SHLQ $4, R8
	LEAQ (R8)(R8*2), R9
	LEAQ (R8)(R8*4), R10
	LEAQ (R9)(R8*4), R11

decgroup:
	VXORPD Y12, Y12, Y12
	VXORPD Y13, Y13, Y13
	VXORPD Y14, Y14, Y14
	VXORPD Y15, Y15, Y15
	MOVQ   SI, R13
	MOVQ   DI, R14
	MOVQ   DX, R12

decstep:
	DECSTEP((R13), (R13)(R8*1), (R14), (R14)(R8*1), Y12)
	DECSTEP((R13)(R8*2), (R13)(R9*1), (R14)(R8*2), (R14)(R9*1), Y13)
	DECSTEP((R13)(R8*4), (R13)(R10*1), (R14)(R8*4), (R14)(R10*1), Y14)
	DECSTEP((R13)(R9*2), (R13)(R11*1), (R14)(R9*2), (R14)(R11*1), Y15)
	ADDQ $16, R13
	ADDQ $16, R14
	DECQ R12
	JNZ  decstep

	VMOVUPD Y12, (BX)
	VMOVUPD Y13, 32(BX)
	VMOVUPD Y14, 64(BX)
	VMOVUPD Y15, 96(BX)
	ADDQ    $128, BX
	LEAQ    (SI)(R8*8), SI
	LEAQ    (DI)(R8*8), DI
	DECQ    CX
	JNZ     decgroup

decdone:
	VZEROUPPER
	RET

// GSTEP advances the five two-frequency chains one sample, V holding the
// sample in both halves: S2 = V + (c·S1 − S2) per component, in the Go
// kernel's order.
#define GSTEP(V, A0, A1, A2, A3, A4, B0, B1, B2, B3, B4) \
	VMULPD 0(DX), A0, Y11; \
	VMULPD 32(DX), A1, Y12; \
	VMULPD 64(DX), A2, Y13; \
	VMULPD 96(DX), A3, Y14; \
	VMULPD 128(DX), A4, Y15; \
	VSUBPD B0, Y11, Y11; \
	VSUBPD B1, Y12, Y12; \
	VSUBPD B2, Y13, Y13; \
	VSUBPD B3, Y14, Y14; \
	VSUBPD B4, Y15, Y15; \
	VADDPD Y11, V, B0; \
	VADDPD Y12, V, B1; \
	VADDPD Y13, V, B2; \
	VADDPD Y14, V, B3; \
	VADDPD Y15, V, B4

// func goertzelAVX2(x []complex128, coef *[20]float64, st *[40]float64)
//
// Y0–Y4 hold s1 and Y5–Y9 s2 of frequencies (0,1), (2,3), … (8,9). Two
// samples per iteration let the states trade roles instead of moving:
// after the first update Y5–Y9 hold s1, after the second Y0–Y4 again.
TEXT ·goertzelAVX2(SB), NOSPLIT, $0-40
	MOVQ   x_base+0(FP), SI
	MOVQ   x_len+8(FP), CX
	MOVQ   coef+24(FP), DX
	MOVQ   st+32(FP), DI
	SHRQ   $1, CX
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	VXORPD Y8, Y8, Y8
	VXORPD Y9, Y9, Y9

loop:
	VBROADCASTF128 (SI), Y10
	GSTEP(Y10, Y0, Y1, Y2, Y3, Y4, Y5, Y6, Y7, Y8, Y9)
	VBROADCASTF128 16(SI), Y10
	GSTEP(Y10, Y5, Y6, Y7, Y8, Y9, Y0, Y1, Y2, Y3, Y4)
	ADDQ           $32, SI
	DECQ           CX
	JNZ            loop

	VMOVUPD Y0, 0(DI)
	VMOVUPD Y1, 32(DI)
	VMOVUPD Y2, 64(DI)
	VMOVUPD Y3, 96(DI)
	VMOVUPD Y4, 128(DI)
	VMOVUPD Y5, 160(DI)
	VMOVUPD Y6, 192(DI)
	VMOVUPD Y7, 224(DI)
	VMOVUPD Y8, 256(DI)
	VMOVUPD Y9, 288(DI)
	VZEROUPPER
	RET

// SLIDE moves the sliding DFT sums of one or two bins (S is an X or a Y
// register) one sample on: S = ((S − L) + E·T)·R, with the sums at (DI),
// their entering-sample rotations T at (R8) and their per-step phase
// advances R at (R9). L holds the leaving sample, ERE and EIM the entering
// sample's real and imaginary parts, broadcast; A–D are scratch. The
// products and sums are those of the Go kernel's complex128 expression.
#define SLIDE(S, L, ERE, EIM, A, B, C, D) \
	VMOVUPD   (DI), S; \
	VSUBPD    L, S, S; \
	VMULPD    (R8), ERE, A; \
	VPERMILPD $5, (R8), B; \
	VMULPD    B, EIM, B; \
	VADDSUBPD B, A, A; \
	VADDPD    A, S, S; \
	VMOVDDUP  (R9), C; \
	VMULPD    C, S, C; \
	VPERMILPD $5, S, S; \
	VPERMILPD $15, (R9), D; \
	VMULPD    D, S, D; \
	VADDSUBPD D, C, S; \
	VMOVUPD   S, (DI)

// func slideAVX2(sums, rot, tail, leave, enter []complex128)
//
// Register use: AX = &sums[0], BX = len(sums), CX = &rot[0],
// DX = &tail[0], SI = the leaving sample, R10 = steps left, R11 = the
// entering sample, R12 = bin pairs, R13 = pairs left in this step.
TEXT ·slideAVX2(SB), NOSPLIT, $0-120
	MOVQ  sums_base+0(FP), AX
	MOVQ  sums_len+8(FP), BX
	MOVQ  rot_base+24(FP), CX
	MOVQ  tail_base+48(FP), DX
	MOVQ  leave_base+72(FP), SI
	MOVQ  leave_len+80(FP), R10
	MOVQ  enter_base+96(FP), R11
	TESTQ R10, R10
	JZ    slidedone
	MOVQ  BX, R12
	SHRQ  $1, R12

slidestep:
	VBROADCASTF128 (SI), Y5
	VBROADCASTSD   (R11), Y6
	VBROADCASTSD   8(R11), Y7
	MOVQ           AX, DI
	MOVQ           DX, R8
	MOVQ           CX, R9
	MOVQ           R12, R13
	TESTQ          R13, R13
	JZ             slideodd

slidepair:
	SLIDE(Y0, Y5, Y6, Y7, Y8, Y9, Y10, Y11)
	ADDQ $32, DI
	ADDQ $32, R8
	ADDQ $32, R9
	DECQ R13
	JNZ  slidepair

slideodd:
	TESTQ $1, BX
	JZ    slidenext
	SLIDE(X0, X5, X6, X7, X8, X9, X10, X11)

slidenext:
	ADDQ $16, SI
	ADDQ $16, R11
	DECQ R10
	JNZ  slidestep

slidedone:
	VZEROUPPER
	RET
