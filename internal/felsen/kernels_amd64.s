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
