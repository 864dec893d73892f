#include "textflag.h"

// A YMM register holds two complex128 values, one per 128-bit lane:
// [re0, im0, re1, im1]. Every kernel works on two independent
// butterflies or bins at a time and performs, in each lane, the IEEE
// operations of the Go code in plan.go.

// signhi flips the last element's sign: the imaginary part of the
// upper lane's −i twiddle product in the first radix-4 pass.
DATA signhi<>+0(SB)/8, $0
DATA signhi<>+8(SB)/8, $0
DATA signhi<>+16(SB)/8, $0
DATA signhi<>+24(SB)/8, $0x8000000000000000
GLOBL signhi<>(SB), RODATA|NOPTR, $32

// signim flips the sign of both imaginary parts.
DATA signim<>+0(SB)/8, $0
DATA signim<>+8(SB)/8, $0x8000000000000000
DATA signim<>+16(SB)/8, $0
DATA signim<>+24(SB)/8, $0x8000000000000000
GLOBL signim<>(SB), RODATA|NOPTR, $32

DATA half<>+0(SB)/8, $0x3fe0000000000000 // 0.5
GLOBL half<>(SB), RODATA|NOPTR, $8

// CMUL sets t = x·w, Go's (ac − bd, ad + bc) in each lane, given the
// twiddles' real parts duplicated in wr and their imaginary parts in wi.
// s is scratch.
#define CMUL(x, wr, wi, t, s) \
	VMULPD    wr, x, t; \
	VPERMILPD $5, x, s; \
	VMULPD    wi, s, s; \
	VADDSUBPD s, t, t

// TWIDDLES splits the complex pair at mem into duplicated real parts
// (wr) and duplicated imaginary parts (wi).
#define TWIDDLES(mem, wr, wi) \
	VMOVDDUP  mem, wr; \
	VPERMILPD $15, mem, wi

// func packAVX2(z []complex128, xs, taper []float64, rev []int32)
TEXT ·packAVX2(SB), NOSPLIT, $0-96
	MOVQ z_base+0(FP), DI
	MOVQ xs_base+24(FP), SI
	MOVQ xs_len+32(FP), CX
	MOVQ taper_base+48(FP), DX
	MOVQ rev_base+72(FP), R8
	SHRQ $2, CX
	JZ   packdone

packloop:
	// Four samples, two pairs: xs·taper, then each pair to its
	// bit-reversed slot.
	VMOVUPD      (SI), Y0
	VMULPD       (DX), Y0, Y0
	MOVL         (R8), AX
	MOVL         4(R8), BX
	SHLQ         $4, AX
	SHLQ         $4, BX
	VMOVUPD      X0, (DI)(AX*1)
	VEXTRACTF128 $1, Y0, (DI)(BX*1)
	ADDQ         $32, SI
	ADDQ         $32, DX
	ADDQ         $8, R8
	DECQ         CX
	JNZ          packloop

packdone:
	VZEROUPPER
	RET

// func radix4AVX2(x []complex128)
TEXT ·radix4AVX2(SB), NOSPLIT, $0-24
	MOVQ    x_base+0(FP), DI
	MOVQ    x_len+8(FP), CX
	SHRQ    $2, CX
	VMOVUPD signhi<>(SB), Y15

r4loop:
	// One group of four, [a, b] and [c, d].
	VMOVUPD    (DI), Y0
	VMOVUPD    32(DI), Y1
	VPERM2F128 $0x20, Y1, Y0, Y2 // [a, c]
	VPERM2F128 $0x31, Y1, Y0, Y3 // [b, d]
	VADDPD     Y3, Y2, Y4        // [s0, s1] = [a+b, c+d]
	VSUBPD     Y3, Y2, Y5        // [d0, d1] = [a−b, c−d]
	VPERM2F128 $0x20, Y5, Y4, Y6 // [s0, d0]
	VPERM2F128 $0x31, Y5, Y4, Y7 // [s1, d1]
	VPERMILPD  $6, Y7, Y7        // [s1, (im d1, re d1)]
	VXORPD     Y15, Y7, Y7       // [s1, t1], t1 = (im d1, −re d1)
	VADDPD     Y7, Y6, Y8        // [s0+s1, d0+t1]
	VSUBPD     Y7, Y6, Y9        // [s0−s1, d0−t1]
	VMOVUPD    Y8, (DI)
	VMOVUPD    Y9, 32(DI)
	ADDQ       $64, DI
	DECQ       CX
	JNZ        r4loop
	VZEROUPPER
	RET

// K0 ends t = x·w in a block's first iteration, whose lane 0 is k = 0:
// the S stage's twiddle there is exactly 1 and Go skips the multiply,
// so the lane takes x itself. KN, for every later iteration, keeps the
// product.
#define K0(x, t) VBLENDPD $3, x, t, t
#define KN(x, t)

// PAIRBODY runs butterflies k and k+1 (byte offset AX) of the stage
// pair over the block's quarters DI, R10, R11 and R12, as the k loop of
// Plan.butterflies; first is K0 or KN.
#define PAIRBODY(first) \
	VMOVUPD (DI)(AX*1), Y0; \
	VMOVUPD (R10)(AX*1), Y1; \
	VMOVUPD (R11)(AX*1), Y2; \
	VMOVUPD (R12)(AX*1), Y3; \
	TWIDDLES((SI)(AX*1), Y4, Y5); \
	CMUL(Y1, Y4, Y5, Y6, Y7); \
	first(Y1, Y6); \
	VADDPD  Y6, Y0, Y8; \
	VSUBPD  Y6, Y0, Y9; \
	CMUL(Y3, Y4, Y5, Y6, Y7); \
	first(Y3, Y6); \
	VADDPD  Y6, Y2, Y10; \
	VSUBPD  Y6, Y2, Y11; \
	TWIDDLES((DX)(AX*1), Y4, Y5); \
	CMUL(Y10, Y4, Y5, Y6, Y7); \
	first(Y10, Y6); \
	VADDPD  Y6, Y8, Y12; \
	VSUBPD  Y6, Y8, Y13; \
	VMOVUPD Y12, (DI)(AX*1); \
	VMOVUPD Y13, (R11)(AX*1); \
	TWIDDLES((R9)(AX*1), Y4, Y5); \
	CMUL(Y11, Y4, Y5, Y6, Y7); \
	VADDPD  Y6, Y9, Y12; \
	VSUBPD  Y6, Y9, Y13; \
	VMOVUPD Y12, (R10)(AX*1); \
	VMOVUPD Y13, (R12)(AX*1)

// func pairAVX2(x, w1, w2 []complex128)
TEXT ·pairAVX2(SB), NOSPLIT, $0-72
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ w1_base+24(FP), SI
	MOVQ w1_len+32(FP), R8
	MOVQ w2_base+48(FP), DX
	SHLQ $4, CX
	ADDQ DI, CX              // end of x
	SHLQ $4, R8              // quarter block, in bytes
	LEAQ (DX)(R8*1), R9      // second half of the 2S stage's twiddles

pairblock:
	LEAQ (DI)(R8*1), R10
	LEAQ (R10)(R8*1), R11
	LEAQ (R11)(R8*1), R12
	XORQ AX, AX
	PAIRBODY(K0)
	ADDQ $32, AX
	CMPQ AX, R8
	JGE  pairnext

pairloop:
	PAIRBODY(KN)
	ADDQ $32, AX
	CMPQ AX, R8
	JLT  pairloop

pairnext:
	LEAQ (R12)(R8*1), DI
	CMPQ DI, CX
	JLT  pairblock
	VZEROUPPER
	RET

// STAGEBODY runs butterflies k and k+1 (byte offset AX) of one stage
// over the block's halves DI and R10; first as in PAIRBODY.
#define STAGEBODY(first) \
	VMOVUPD (DI)(AX*1), Y0; \
	VMOVUPD (R10)(AX*1), Y1; \
	TWIDDLES((SI)(AX*1), Y4, Y5); \
	CMUL(Y1, Y4, Y5, Y6, Y7); \
	first(Y1, Y6); \
	VADDPD  Y6, Y0, Y8; \
	VSUBPD  Y6, Y0, Y9; \
	VMOVUPD Y8, (DI)(AX*1); \
	VMOVUPD Y9, (R10)(AX*1)

// func stageAVX2(x, w []complex128)
TEXT ·stageAVX2(SB), NOSPLIT, $0-48
	MOVQ x_base+0(FP), DI
	MOVQ x_len+8(FP), CX
	MOVQ w_base+24(FP), SI
	MOVQ w_len+32(FP), R8
	SHLQ $4, CX
	ADDQ DI, CX              // end of x
	SHLQ $4, R8              // half block, in bytes

stageblock:
	LEAQ (DI)(R8*1), R10
	XORQ AX, AX
	STAGEBODY(K0)
	ADDQ $32, AX
	CMPQ AX, R8
	JGE  stagenext

stageloop:
	STAGEBODY(KN)
	ADDQ $32, AX
	CMPQ AX, R8
	JLT  stageloop

stagenext:
	LEAQ (R10)(R8*1), DI
	CMPQ DI, CX
	JLT  stageblock
	VZEROUPPER
	RET

// func unpackAVX2(dst []float64, z, w []complex128)
//
// Bins k and k+1 with their mirrors m−k and m−k−1 per iteration, for
// k = 1, 3, …, m/2−1. The last iteration's mirror store writes bin m/2
// with its mirror formula first; the direct store then overwrites it,
// as the Go loop writes bin m/2 once.
TEXT ·unpackAVX2(SB), NOSPLIT, $0-72
	MOVQ         dst_base+0(FP), DI
	MOVQ         z_base+24(FP), SI
	MOVQ         z_len+32(FP), CX
	MOVQ         w_base+48(FP), DX
	VBROADCASTSD half<>(SB), Y14
	VMOVUPD      signim<>(SB), Y15
	LEAQ         16(SI), R8           // &z[k]
	MOVQ         CX, BX
	SHLQ         $4, BX
	LEAQ         -32(SI)(BX*1), R9    // &z[m−k−1]
	LEAQ         16(DX), R10          // &w[k]
	LEAQ         8(DI), R11           // &dst[k]
	MOVQ         CX, BX
	SHLQ         $3, BX
	LEAQ         -16(DI)(BX*1), R12   // &dst[m−k−1]
	SHRQ         $2, CX

unpackloop:
	VMOVUPD   (R8), Y0                // [z[k], z[k+1]]
	VPERMPD   $0x4e, (R9), Y1         // [z[m−k], z[m−k−1]]
	VADDPD    Y1, Y0, Y2              // zk + zmk
	VSUBPD    Y1, Y0, Y3              // zk − zmk
	VSUBPD    Y0, Y1, Y4              // zmk − zk
	VBLENDPD  $0xa, Y3, Y2, Y5        // (re zk + re zmk, im zk − im zmk)
	VBLENDPD  $0x5, Y4, Y2, Y6        // (re zmk − re zk, im zk + im zmk)
	VPERMILPD $5, Y6, Y6              // (im zk + im zmk, re zmk − re zk)
	VMULPD    Y14, Y5, Y5             // E = (erE, eiE)
	VMULPD    Y14, Y6, Y6             // O = (orE, oiE)
	TWIDDLES((R10), Y7, Y8)
	CMUL(Y6, Y7, Y8, Y9, Y10)         // w·O = (tr, ti)
	VADDPD    Y9, Y5, Y11             // (xr, xi) = E + w·O
	VXORPD    Y15, Y5, Y12            // (erE, −eiE)
	VADDSUBPD Y9, Y12, Y12            // (yr, yi) = (erE − tr, −eiE + ti)
	VMULPD    Y11, Y11, Y11
	VMULPD    Y12, Y12, Y12
	VHADDPD   Y12, Y11, Y13           // [|X[k]|², |X[m−k]|², |X[k+1]|², |X[m−k−1]|²]
	VPERMPD   $0x78, Y13, Y13         // [k, k+1, m−k−1, m−k]
	VEXTRACTF128 $1, Y13, (R12)
	VMOVUPD   X13, (R11)
	ADDQ      $32, R8
	SUBQ      $32, R9
	ADDQ      $32, R10
	ADDQ      $16, R11
	SUBQ      $16, R12
	DECQ      CX
	JNZ       unpackloop
	VZEROUPPER
	RET
