#include "textflag.h"

// A YMM register holds four samples. Each kernel performs, in every
// lane, the IEEE operations of the Go loop it replaces in wire.go, so
// every frame keeps its bytes.

DATA half<>+0(SB)/8, $0x3fe0000000000000 // 0.5
GLOBL half<>(SB), RODATA|NOPTR, $8

DATA maxcode<>+0(SB)/8, $0x40efffe000000000 // 65535
GLOBL maxcode<>(SB), RODATA|NOPTR, $8

// func boundsAVX2(xs []float64) (lo, hi float64, nan bool)
//
// len(xs) is a positive multiple of 4. lo and hi are meaningless when
// nan is set.
TEXT ·boundsAVX2(SB), NOSPLIT, $0-41
	MOVQ    xs_base+0(FP), SI
	MOVQ    xs_len+8(FP), CX
	SHRQ    $2, CX
	VMOVUPD (SI), Y0             // lo lanes
	VMOVAPD Y0, Y1               // hi lanes
	VCMPPD  $3, Y0, Y0, Y2       // NaN lanes (unordered)
	ADDQ    $32, SI
	DECQ    CX
	JZ      boundsfold

boundsloop:
	VMOVUPD (SI), Y3
	VMINPD  Y3, Y0, Y0
	VMAXPD  Y3, Y1, Y1
	VCMPPD  $3, Y3, Y3, Y4
	VORPD   Y4, Y2, Y2
	ADDQ    $32, SI
	DECQ    CX
	JNZ     boundsloop

boundsfold:
	VEXTRACTF128 $1, Y0, X3
	VMINPD       X3, X0, X0
	VPERMILPD    $1, X0, X3
	VMINSD       X3, X0, X0
	VEXTRACTF128 $1, Y1, X3
	VMAXPD       X3, X1, X1
	VPERMILPD    $1, X1, X3
	VMAXSD       X3, X1, X1
	VMOVSD       X0, lo+24(FP)
	VMOVSD       X1, hi+32(FP)
	VMOVMSKPD    Y2, AX
	TESTL        AX, AX
	SETNE        nan+40(FP)
	VZEROUPPER
	RET

// func quantizeAVX2(dst []byte, xs []float64, offset, scale float64) bool
//
// len(xs) is a multiple of 4 and len(dst) ≥ 2·len(xs). Per lane:
// c = floor((x − offset)/scale + 0.5), the lane fails when c < 0,
// c > 65535 or offset + c·scale differs from x in any bit, and the
// code is stored as a little-endian uint16. Failures OR into one mask,
// tested once at the end; a failed batch's codes are garbage.
TEXT ·quantizeAVX2(SB), NOSPLIT, $0-65
	MOVQ         dst_base+0(FP), DI
	MOVQ         xs_base+24(FP), SI
	MOVQ         xs_len+32(FP), CX
	VBROADCASTSD offset+48(FP), Y10
	VBROADCASTSD scale+56(FP), Y11
	VBROADCASTSD half<>(SB), Y12
	VBROADCASTSD maxcode<>(SB), Y13
	VXORPD       Y14, Y14, Y14   // 0
	VPCMPEQQ     Y9, Y9, Y9      // all ones
	VPXOR        Y15, Y15, Y15   // failed lanes
	SHRQ         $2, CX
	JZ           quantizedone

quantizeloop:
	VMOVUPD     (SI), Y0
	VSUBPD      Y10, Y0, Y1      // x − offset
	VDIVPD      Y11, Y1, Y1      // ÷ scale
	VADDPD      Y12, Y1, Y1      // + 0.5
	VROUNDPD    $1, Y1, Y1       // c: floor, as math.Floor's ROUNDSD $1
	VCMPPD      $1, Y14, Y1, Y2  // c < 0 (LT_OS)
	VCMPPD      $0x1e, Y13, Y1, Y3 // c > 65535 (GT_OQ)
	VMULPD      Y11, Y1, Y4      // c·scale
	VADDPD      Y4, Y10, Y4      // offset + c·scale
	VPCMPEQQ    Y0, Y4, Y4       // same bits as x: VCMPPD would call ±0 equal
	VPXOR       Y9, Y4, Y4       // different bits
	VPOR        Y3, Y2, Y2
	VPOR        Y4, Y2, Y2
	VPOR        Y2, Y15, Y15
	VCVTTPD2DQY Y1, X5
	VPACKUSDW   X5, X5, X5
	VMOVQ       X5, (DI)
	ADDQ        $32, SI
	ADDQ        $8, DI
	DECQ        CX
	JNZ         quantizeloop

quantizedone:
	VPTEST Y15, Y15
	SETEQ  ret+64(FP)
	VZEROUPPER
	RET

// func dequantizeAVX2(dst []float64, src []byte, offset, scale float64)
//
// len(dst) is a multiple of 4 and len(src) ≥ 2·len(dst):
// dst[i] = offset + float64(code i)·scale.
TEXT ·dequantizeAVX2(SB), NOSPLIT, $0-64
	MOVQ         dst_base+0(FP), DI
	MOVQ         dst_len+8(FP), CX
	MOVQ         src_base+24(FP), SI
	VBROADCASTSD offset+48(FP), Y10
	VBROADCASTSD scale+56(FP), Y11
	SHRQ         $2, CX
	JZ           dequantizedone

dequantizeloop:
	VPMOVZXWD (SI), X0           // four codes
	VCVTDQ2PD X0, Y0
	VMULPD    Y11, Y0, Y0        // code·scale
	VADDPD    Y10, Y0, Y0        // offset + code·scale, the product first as Go adds it
	VMOVUPD   Y0, (DI)
	ADDQ      $8, SI
	ADDQ      $32, DI
	DECQ      CX
	JNZ       dequantizeloop

dequantizedone:
	VZEROUPPER
	RET
