// AVX2 pattern kernels: four patterns per YMM register, one VMULPD or
// VADDPD per scalar * or + of the Go loops in kernels.go, in the same
// left-to-right order and without FMA, so every lane rounds exactly as
// the scalar code does. The running maximum is VMAXPD with the current
// maximum as the second source, which is `if w > maxv { maxv = w }`
// bit for bit (a NaN or a tie keeps maxv). A group in which any lane
// needs rescaling is left unwritten: the kernel returns how many
// patterns it finished and the Go caller runs that group through the
// scalar loop.
//
// Rows are passed as (lane 0 pointer, lane stride in float64s, scale
// lane pointer); state lane x starts x strides after lane 0. Matrix
// entries are broadcast once per call into the local frame, so the dot
// products read them as folded memory operands.

#include "textflag.h"

// 1e-150 (rescaleThreshold) in every lane.
DATA rescaleThr<>+0(SB)/8, $0x20ca2fe76a3f9475
DATA rescaleThr<>+8(SB)/8, $0x20ca2fe76a3f9475
DATA rescaleThr<>+16(SB)/8, $0x20ca2fe76a3f9475
DATA rescaleThr<>+24(SB)/8, $0x20ca2fe76a3f9475
GLOBL rescaleThr<>(SB), RODATA|NOPTR, $32

// BCAST16 broadcasts the 16 entries of the matrix at m into 16
// consecutive 32-byte slots of the frame starting at off(SP).
#define BCAST16(m, off) \
	VBROADCASTSD 0(m), Y0; VMOVUPD Y0, (off+0)(SP); \
	VBROADCASTSD 8(m), Y0; VMOVUPD Y0, (off+32)(SP); \
	VBROADCASTSD 16(m), Y0; VMOVUPD Y0, (off+64)(SP); \
	VBROADCASTSD 24(m), Y0; VMOVUPD Y0, (off+96)(SP); \
	VBROADCASTSD 32(m), Y0; VMOVUPD Y0, (off+128)(SP); \
	VBROADCASTSD 40(m), Y0; VMOVUPD Y0, (off+160)(SP); \
	VBROADCASTSD 48(m), Y0; VMOVUPD Y0, (off+192)(SP); \
	VBROADCASTSD 56(m), Y0; VMOVUPD Y0, (off+224)(SP); \
	VBROADCASTSD 64(m), Y0; VMOVUPD Y0, (off+256)(SP); \
	VBROADCASTSD 72(m), Y0; VMOVUPD Y0, (off+288)(SP); \
	VBROADCASTSD 80(m), Y0; VMOVUPD Y0, (off+320)(SP); \
	VBROADCASTSD 88(m), Y0; VMOVUPD Y0, (off+352)(SP); \
	VBROADCASTSD 96(m), Y0; VMOVUPD Y0, (off+384)(SP); \
	VBROADCASTSD 104(m), Y0; VMOVUPD Y0, (off+416)(SP); \
	VBROADCASTSD 112(m), Y0; VMOVUPD Y0, (off+448)(SP); \
	VBROADCASTSD 120(m), Y0; VMOVUPD Y0, (off+480)(SP)

// DOT computes acc = m[x][0]*y0 + m[x][1]*y1 + m[x][2]*y2 + m[x][3]*y3,
// left to right, with matrix row x broadcast at off(SP) (see BCAST16).
// Clobbers Y15.
#define DOT(off, y0, y1, y2, y3, acc) \
	VMULPD (off+0)(SP), y0, acc; \
	VMULPD (off+32)(SP), y1, Y15; \
	VADDPD Y15, acc, acc; \
	VMULPD (off+64)(SP), y2, Y15; \
	VADDPD Y15, acc, acc; \
	VMULPD (off+96)(SP), y3, Y15; \
	VADDPD Y15, acc, acc

// LOAD4 loads the four state lanes of the row at (base, stride) into
// y0..y3; STORE4 stores them. Both clobber BX.
#define LOAD4(base, stride, y0, y1, y2, y3) \
	VMOVUPD (base), y0; \
	VMOVUPD (base)(stride*1), y1; \
	VMOVUPD (base)(stride*2), y2; \
	LEAQ (base)(stride*2), BX; \
	VMOVUPD (BX)(stride*1), y3

#define STORE4(base, stride, y0, y1, y2, y3) \
	VMOVUPD y0, (base); \
	VMOVUPD y1, (base)(stride*1); \
	VMOVUPD y2, (base)(stride*2); \
	LEAQ (base)(stride*2), BX; \
	VMOVUPD y3, (BX)(stride*1)

// RUNNINGMAX sets mx to the running maximum of w0..w3 started at +0,
// and RESCALE jumps to bail when any lane of mx lies in (0, 1e-150).
// RESCALE clobbers tmp, zero and AX.
#define RUNNINGMAX(w0, w1, w2, w3, mx) \
	VXORPD mx, mx, mx; \
	VMAXPD mx, w0, mx; \
	VMAXPD mx, w1, mx; \
	VMAXPD mx, w2, mx; \
	VMAXPD mx, w3, mx

#define RESCALE(mx, tmp, zero, bail) \
	VCMPPD $0x11, rescaleThr<>(SB), mx, tmp; \
	VXORPD zero, zero, zero; \
	VCMPPD $0x1e, zero, mx, zero; \
	VANDPD zero, tmp, tmp; \
	VMOVMSKPD tmp, AX; \
	TESTL AX, AX; \
	JNZ bail

// func nodeKernelAVX2(l *float64, lstride int, ls *float64, r *float64, rstride int, rs *float64, o *float64, ostride int, os *float64, m0, m1 *subst.Matrix, groups int) (done int)
TEXT ·nodeKernelAVX2(SB), 0, $1024-104
	MOVQ m0+72(FP), AX
	BCAST16(AX, 0)
	MOVQ m1+80(FP), AX
	BCAST16(AX, 512)
	MOVQ l+0(FP), SI
	MOVQ lstride+8(FP), R8
	SHLQ $3, R8
	MOVQ ls+16(FP), R9
	MOVQ r+24(FP), DI
	MOVQ rstride+32(FP), R10
	SHLQ $3, R10
	MOVQ rs+40(FP), R11
	MOVQ o+48(FP), DX
	MOVQ ostride+56(FP), R12
	SHLQ $3, R12
	MOVQ os+64(FP), R13
	XORQ CX, CX

nodeLoop:
	CMPQ CX, groups+88(FP)
	JGE  nodeDone
	LOAD4(SI, R8, Y0, Y1, Y2, Y3)
	LOAD4(DI, R10, Y4, Y5, Y6, Y7)
	DOT(0, Y0, Y1, Y2, Y3, Y8)
	DOT(512, Y4, Y5, Y6, Y7, Y9)
	VMULPD Y9, Y8, Y11
	DOT(128, Y0, Y1, Y2, Y3, Y8)
	DOT(640, Y4, Y5, Y6, Y7, Y9)
	VMULPD Y9, Y8, Y12
	DOT(256, Y0, Y1, Y2, Y3, Y8)
	DOT(768, Y4, Y5, Y6, Y7, Y9)
	VMULPD Y9, Y8, Y13
	DOT(384, Y0, Y1, Y2, Y3, Y8)
	DOT(896, Y4, Y5, Y6, Y7, Y9)
	VMULPD Y9, Y8, Y14
	RUNNINGMAX(Y11, Y12, Y13, Y14, Y10)
	RESCALE(Y10, Y8, Y9, nodeDone)
	STORE4(DX, R12, Y11, Y12, Y13, Y14)
	VMOVUPD (R9), Y8
	VADDPD  (R11), Y8, Y8
	VMOVUPD Y8, (R13)
	ADDQ $32, SI
	ADDQ $32, R9
	ADDQ $32, DI
	ADDQ $32, R11
	ADDQ $32, DX
	ADDQ $32, R13
	INCQ CX
	JMP  nodeLoop

nodeDone:
	VZEROUPPER
	SHLQ $2, CX
	MOVQ CX, done+96(FP)
	RET

// func walkKernelAVX2(s *float64, sstride int, ss *float64, c *float64, cstride int, cs *float64, m *subst.Matrix, groups int) (done int)
TEXT ·walkKernelAVX2(SB), 0, $512-72
	MOVQ m+48(FP), AX
	BCAST16(AX, 0)
	MOVQ s+0(FP), SI
	MOVQ sstride+8(FP), R8
	SHLQ $3, R8
	MOVQ ss+16(FP), R9
	MOVQ c+24(FP), DI
	MOVQ cstride+32(FP), R10
	SHLQ $3, R10
	MOVQ cs+40(FP), R11
	XORQ CX, CX

walkLoop:
	CMPQ CX, groups+56(FP)
	JGE  walkDone
	LOAD4(SI, R8, Y0, Y1, Y2, Y3)
	LOAD4(DI, R10, Y4, Y5, Y6, Y7)
	DOT(0, Y0, Y1, Y2, Y3, Y8)
	VMULPD Y4, Y8, Y8
	DOT(128, Y0, Y1, Y2, Y3, Y9)
	VMULPD Y5, Y9, Y9
	DOT(256, Y0, Y1, Y2, Y3, Y10)
	VMULPD Y6, Y10, Y10
	DOT(384, Y0, Y1, Y2, Y3, Y11)
	VMULPD Y7, Y11, Y11
	RUNNINGMAX(Y8, Y9, Y10, Y11, Y12)
	RESCALE(Y12, Y13, Y14, walkDone)
	STORE4(SI, R8, Y8, Y9, Y10, Y11)
	VMOVUPD (R9), Y13
	VADDPD  (R11), Y13, Y13
	VMOVUPD Y13, (R9)
	ADDQ $32, SI
	ADDQ $32, R9
	ADDQ $32, DI
	ADDQ $32, R11
	INCQ CX
	JMP  walkLoop

walkDone:
	VZEROUPPER
	SHLQ $2, CX
	MOVQ CX, done+64(FP)
	RET

// func liftKernelAVX2(v *float64, vstride int, o *float64, ostride int, m *subst.Matrix, groups int)
TEXT ·liftKernelAVX2(SB), 0, $512-48
	MOVQ m+32(FP), AX
	BCAST16(AX, 0)
	MOVQ v+0(FP), SI
	MOVQ vstride+8(FP), R8
	SHLQ $3, R8
	MOVQ o+16(FP), DI
	MOVQ ostride+24(FP), R10
	SHLQ $3, R10
	MOVQ groups+40(FP), CX

liftLoop:
	TESTQ CX, CX
	JLE   liftDone
	LOAD4(SI, R8, Y0, Y1, Y2, Y3)
	DOT(0, Y0, Y1, Y2, Y3, Y4)
	DOT(128, Y0, Y1, Y2, Y3, Y5)
	DOT(256, Y0, Y1, Y2, Y3, Y6)
	DOT(384, Y0, Y1, Y2, Y3, Y7)
	STORE4(DI, R10, Y4, Y5, Y6, Y7)
	ADDQ $32, SI
	ADDQ $32, DI
	DECQ CX
	JMP  liftLoop

liftDone:
	VZEROUPPER
	RET

// The root contraction's constants, each in every lane. The log's are
// archLog's ($GOROOT/src/math/log_amd64.s), written as their bits.
#define CONST4(name, bits) \
	DATA name<>+0(SB)/8, $bits; \
	DATA name<>+8(SB)/8, $bits; \
	DATA name<>+16(SB)/8, $bits; \
	DATA name<>+24(SB)/8, $bits; \
	GLOBL name<>(SB), RODATA|NOPTR, $32

CONST4(minNormal, 0x0010000000000000) // 2^-1022
CONST4(maxFloat, 0x7fefffffffffffff)  // math.MaxFloat64
CONST4(fracMask, 0x000fffffffffffff)
CONST4(half, 0x3fe0000000000000)
CONST4(one, 0x3ff0000000000000)
CONST4(two, 0x4000000000000000)
CONST4(twoP52, 0x4330000000000000)    // 2^52
CONST4(expBias, 0x43300000000003fe)   // 2^52 + 1022
CONST4(hSqrt2, 0x3fe6a09e667f3bcd)    // √2/2
CONST4(ln2Hi, 0x3fe62e42fee00000)
CONST4(ln2Lo, 0x3dea39ef35793c76)
CONST4(logL1, 0x3fe5555555555593)
CONST4(logL2, 0x3fd999999997fa04)
CONST4(logL3, 0x3fd2492494229359)
CONST4(logL4, 0x3fcc71c51d8e78af)
CONST4(logL5, 0x3fc7466496cb03de)
CONST4(logL6, 0x3fc39a09d078c69f)
CONST4(logL7, 0x3fc2f112df3e5244)

// func rootKernelAVX2(s *float64, stride int, ss *float64, pc *float64, f *[4]float64, sum float64, groups int) (out float64, done int)
//
// Per group: siteL = f0*s0 + f1*s1 + f2*s2 + f3*s3 as in rootScalar;
// bail unless every lane lies in [2^-1022, MaxFloat64] (two ordered
// compares, so 0, -0, negatives, subnormals, +Inf and NaN all bail);
// log(siteL) by archLog's instruction sequence, lane-wise; then
// term = pc*(log+ss), whose four lanes are added to sum one by one with
// scalar VADDSD in pattern order. The frequencies stay in Y12..Y15 and
// the sum in the low lane of X9.
TEXT ·rootKernelAVX2(SB), NOSPLIT, $0-72
	MOVQ f+32(FP), AX
	VBROADCASTSD 0(AX), Y12
	VBROADCASTSD 8(AX), Y13
	VBROADCASTSD 16(AX), Y14
	VBROADCASTSD 24(AX), Y15
	MOVQ  s+0(FP), SI
	MOVQ  stride+8(FP), R8
	SHLQ  $3, R8
	MOVQ  ss+16(FP), R9
	MOVQ  pc+24(FP), R10
	MOVSD sum+40(FP), X9
	MOVQ  groups+48(FP), DX
	XORQ  CX, CX

rootLoop:
	CMPQ CX, DX
	JGE  rootDone
	// siteL, left to right
	VMULPD (SI), Y12, Y0
	VMULPD (SI)(R8*1), Y13, Y1
	VADDPD Y1, Y0, Y0
	VMULPD (SI)(R8*2), Y14, Y1
	VADDPD Y1, Y0, Y0
	LEAQ   (SI)(R8*2), BX
	VMULPD (BX)(R8*1), Y15, Y1
	VADDPD Y1, Y0, Y0
	// bail unless 2^-1022 <= siteL <= MaxFloat64 in every lane
	VCMPPD    $0x1d, minNormal<>(SB), Y0, Y1 // GE_OQ
	VCMPPD    $0x12, maxFloat<>(SB), Y0, Y2  // LE_OQ
	VANDPD    Y2, Y1, Y1
	VMOVMSKPD Y1, AX
	CMPL      AX, $15
	JNE       rootDone

	// f1, ki := math.Frexp(x); k := float64(ki): archLog's AND/OR, and
	// k = e - 1022 for e = bits>>52, exact through the bits of 2^52 + e
	VANDPD fracMask<>(SB), Y0, Y1
	VORPD  half<>(SB), Y1, Y1 // Y1 = f1
	VPSRLQ $52, Y0, Y2
	VPOR   twoP52<>(SB), Y2, Y2
	VSUBPD expBias<>(SB), Y2, Y2 // Y2 = k
	// if !(√2/2 < f1) { k -= 1; f1 *= 2 }: CMPSD's predicate 5 (NLT)
	VMOVUPD hSqrt2<>(SB), Y3
	VCMPPD  $5, Y1, Y3, Y3
	VANDPD  one<>(SB), Y3, Y3 // 0 or 1
	VSUBPD  Y3, Y2, Y2
	VADDPD  one<>(SB), Y3, Y3 // 1 or 2
	VMULPD  Y3, Y1, Y1
	// f := f1 - 1; s := f / (2 + f); s2 := s * s; s4 := s2 * s2
	VSUBPD one<>(SB), Y1, Y1 // Y1 = f
	VADDPD two<>(SB), Y1, Y3
	VDIVPD Y3, Y1, Y3        // Y3 = s
	VMULPD Y3, Y3, Y4        // Y4 = s2
	VMULPD Y4, Y4, Y5        // Y5 = s4
	// t1 := s2 * (L1 + s4*(L3+s4*(L5+s4*L7)))
	VMULPD logL7<>(SB), Y5, Y6
	VADDPD logL5<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL3<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL1<>(SB), Y6, Y6
	VMULPD Y6, Y4, Y4 // Y4 = t1
	// t2 := s4 * (L2 + s4*(L4+s4*L6))
	VMULPD logL6<>(SB), Y5, Y6
	VADDPD logL4<>(SB), Y6, Y6
	VMULPD Y5, Y6, Y6
	VADDPD logL2<>(SB), Y6, Y6
	VMULPD Y6, Y5, Y5 // Y5 = t2
	// R := t1 + t2; hfsq := 0.5 * f * f
	VADDPD Y5, Y4, Y4 // Y4 = R
	VMULPD half<>(SB), Y1, Y7
	VMULPD Y1, Y7, Y7 // Y7 = hfsq
	// k*Ln2Hi - ((hfsq - (s*(hfsq+R) + k*Ln2Lo)) - f)
	VADDPD Y7, Y4, Y4
	VMULPD Y4, Y3, Y3
	VMULPD ln2Lo<>(SB), Y2, Y4
	VADDPD Y4, Y3, Y3
	VSUBPD Y3, Y7, Y7
	VSUBPD Y1, Y7, Y7
	VMULPD ln2Hi<>(SB), Y2, Y2
	VSUBPD Y7, Y2, Y2 // Y2 = log(siteL)
	// term = pc * (log + ss); sum += term lane by lane
	VADDPD       (R9), Y2, Y2
	VMULPD       (R10), Y2, Y2
	VADDSD       X2, X9, X9
	VUNPCKHPD    X2, X2, X3
	VADDSD       X3, X9, X9
	VEXTRACTF128 $1, Y2, X2
	VADDSD       X2, X9, X9
	VUNPCKHPD    X2, X2, X3
	VADDSD       X3, X9, X9
	ADDQ         $32, SI
	ADDQ         $32, R9
	ADDQ         $32, R10
	INCQ         CX
	JMP          rootLoop

rootDone:
	VZEROUPPER
	MOVSD X9, out+56(FP)
	SHLQ  $2, CX
	MOVQ  CX, done+64(FP)
	RET

// func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuid(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv() (eax uint32)
TEXT ·xgetbv(SB), NOSPLIT, $0-4
	MOVL $0, CX
	XGETBV
	MOVL AX, eax+0(FP)
	RET
