// Pattern kernels at two vector tiers: AVX2, four patterns per YMM
// register, and AVX-512F, eight patterns per ZMM register (further
// down), each for node, walk, lift and the root contraction's terms.
// Both do one VMULPD or VADDPD per scalar * or + of the Go loops in
// kernels.go, in the same left-to-right order and without FMA, so every
// lane rounds exactly as the scalar code does. The running maximum is
// VMAXPD with the current maximum as the second source, which is
// `if w > maxv { maxv = w }` bit for bit (a NaN or a tie keeps maxv). A
// group in which any lane needs rescaling is left unwritten: the kernel
// returns how many patterns it finished, and the Go caller runs that
// group at the next tier down (an 8-pattern group as two AVX2 groups, a
// 4-pattern group through the scalar loop). The root kernels only write
// terms; Go adds them, and hands a group they leave to the scalar loop.
// At AVX-512 one more kernel, cellKernelAVX512, fuses a wave cell: each
// 8-pattern group's target, parent, root-path walk and root term run in
// registers, with the node, walk and root kernels' operations, and only
// the terms are stored. It leaves unwritten the first group in which any
// node may need rescaling (one compare per node, of a maximum taken as a
// tree) or whose root likelihood the root kernels would bail on, and Go
// runs that group through the staged kernels above.
//
// Rows are passed as (lane 0 pointer, lane stride in float64s, scale
// lane pointer); state lane x starts x strides after lane 0. The AVX2
// kernels broadcast the matrix entries once per call into the local
// frame, so the dot products read them as folded memory operands.

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

// The fused cell kernel's steps, on ZMM registers (cellKernelAVX512,
// in the AVX-512 section below, and rootTermsAVX512's log). They are
// defined here, before the first TEXT, because some name the cell
// kernel's arguments and go vet reads every line after a TEXT as part of
// that function. They use DOTB from below. NODE8 sets o_x = (ml[x]·u) *
// (mr[x]·v) for x = 0..3, nodeKernelAVX512's node step before its
// running maximum, with the two dots in a and b. WALK8 sets o_x =
// (m[x]·s) * outer_x, walkKernelAVX512's step, with outer's state lanes
// at (p) and stride R8; it clobbers p. Both clobber Z15.
//
// CHECK8 clears, in the mask k, each lane of the row w0..w3 whose
// maximum state, taken as a tree of VMAXPDs, is not at least 1e-150
// (broadcast in Z23), clobbering t0 and t1. That is one compare per node
// where the node kernels take a running maximum and test (0, 1e-150),
// and it clears every lane they would rescale: such a lane has no state
// at or above 1e-150, and its tree maximum is then below it or NaN. A
// lane it keeps has a state at or above 1e-150, so the node kernels
// leave it unscaled. It also clears a lane with no positive state, which
// the node kernels would pass; the staged path then runs that group.
#define NODE8(ml, mr, u0, u1, u2, u3, v0, v1, v2, v3, a, b, o0, o1, o2, o3) \
	DOTB(ml, 0, u0, u1, u2, u3, a); \
	DOTB(mr, 0, v0, v1, v2, v3, b); \
	VMULPD b, a, o0; \
	DOTB(ml, 32, u0, u1, u2, u3, a); \
	DOTB(mr, 32, v0, v1, v2, v3, b); \
	VMULPD b, a, o1; \
	DOTB(ml, 64, u0, u1, u2, u3, a); \
	DOTB(mr, 64, v0, v1, v2, v3, b); \
	VMULPD b, a, o2; \
	DOTB(ml, 96, u0, u1, u2, u3, a); \
	DOTB(mr, 96, v0, v1, v2, v3, b); \
	VMULPD b, a, o3

#define WALK8(m, p, s0, s1, s2, s3, o0, o1, o2, o3) \
	DOTB(m, 0, s0, s1, s2, s3, o0); \
	VMULPD (p), o0, o0; \
	DOTB(m, 32, s0, s1, s2, s3, o1); \
	VMULPD (p)(R8*1), o1, o1; \
	DOTB(m, 64, s0, s1, s2, s3, o2); \
	VMULPD (p)(R8*2), o2, o2; \
	LEAQ (p)(R8*2), p; \
	DOTB(m, 96, s0, s1, s2, s3, o3); \
	VMULPD (p)(R8*1), o3, o3

#define CHECK8(w0, w1, w2, w3, t0, t1, k) \
	VMAXPD w1, w0, t0; \
	VMAXPD w3, w2, t1; \
	VMAXPD t1, t0, t0; \
	VCMPPD $0x1d, Z23, t0, k, k

// SITEL8 sets x = f0*s0 + f1*s1 + f2*s2 + f3*s3 left to right, the
// frequencies in Z26..Z29, and jumps to bail unless every lane is set in
// the mask k and lies in [2^-1022, MaxFloat64] (two ordered compares, as
// rootTermsAVX2). Clobbers tmp, K1, K2 and AX.
#define SITEL8(s0, s1, s2, s3, x, tmp, k, bail) \
	VMULPD s0, Z26, x; \
	VMULPD s1, Z27, tmp; \
	VADDPD tmp, x, x; \
	VMULPD s2, Z28, tmp; \
	VADDPD tmp, x, x; \
	VMULPD s3, Z29, tmp; \
	VADDPD tmp, x, x; \
	VCMPPD.BCST $0x1d, minNormal<>(SB), x, k, K1; \
	VCMPPD.BCST $0x12, maxFloat<>(SB), x, K1, K2; \
	KMOVW K2, AX; \
	CMPL AX, $0xff; \
	JNE bail

// LOG8 sets k = log(x) lane-wise by archLog's sequence, rootTermsAVX2's
// (whose comments name the steps) in AVX512F alone, with √2/2 in Z30
// and 1 in Z31. Clobbers f, s, s2, s4, p, h and K3.
#define LOG8(x, k, f, s, s2, s4, p, h) \
	VPANDQ.BCST fracMask<>(SB), x, f; \
	VPORQ.BCST half<>(SB), f, f; \
	VPSRLQ $52, x, k; \
	VPORQ.BCST twoP52<>(SB), k, k; \
	VSUBPD.BCST expBias<>(SB), k, k; \
	VCMPPD $5, f, Z30, K3; \
	VMOVAPD.Z Z31, K3, s; \
	VSUBPD s, k, k; \
	VADDPD Z31, s, s; \
	VMULPD s, f, f; \
	VSUBPD Z31, f, f; \
	VADDPD.BCST two<>(SB), f, s; \
	VDIVPD s, f, s; \
	VMULPD s, s, s2; \
	VMULPD s2, s2, s4; \
	VMULPD.BCST logL7<>(SB), s4, p; \
	VADDPD.BCST logL5<>(SB), p, p; \
	VMULPD s4, p, p; \
	VADDPD.BCST logL3<>(SB), p, p; \
	VMULPD s4, p, p; \
	VADDPD.BCST logL1<>(SB), p, p; \
	VMULPD p, s2, s2; \
	VMULPD.BCST logL6<>(SB), s4, p; \
	VADDPD.BCST logL4<>(SB), p, p; \
	VMULPD s4, p, p; \
	VADDPD.BCST logL2<>(SB), p, p; \
	VMULPD p, s4, s4; \
	VADDPD s4, s2, s2; \
	VMULPD.BCST half<>(SB), f, h; \
	VMULPD f, h, h; \
	VADDPD h, s2, s2; \
	VMULPD s2, s, s; \
	VMULPD.BCST ln2Lo<>(SB), k, s2; \
	VADDPD s2, s, s; \
	VSUBPD s, h, h; \
	VSUBPD f, h, h; \
	VMULPD.BCST ln2Hi<>(SB), k, k; \
	VSUBPD h, k, k

// CELLTARGET, CELLPARENT and CELLWALK are one 8-pattern group's node
// steps, the group's rows d bytes after R9 in every row: the target row
// into t0..t3 (with the scale into sc), the parent row from it into
// o0..o3 (adding the clean child's scale to sc), and one walk level,
// level pointer R10, over the matrix at AX, from s0..s3 into o0..o3
// (adding the level's clean scale to sc). The target step sets every
// lane of the group's mask k, and each step clears in it the lanes its
// node may need to rescale (CHECK8); the group's SITEL8 reads it. The
// target step clobbers Z0..Z9, the parent step Z4..Z9, and all three
// Z14 and Z19.
#define CELLTARGET(d, t0, t1, t2, t3, sc, k) \
	KXNORW k, k, k; \
	MOVQ tl+0(FP), BX; \
	LEAQ d(BX)(R9*1), BX; \
	LOAD4(BX, R8, Z0, Z1, Z2, Z3); \
	MOVQ tr+16(FP), BX; \
	LEAQ d(BX)(R9*1), BX; \
	LOAD4(BX, R8, Z4, Z5, Z6, Z7); \
	MOVQ tm0+56(FP), AX; \
	MOVQ tm1+64(FP), SI; \
	NODE8(AX, SI, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z8, Z9, t0, t1, t2, t3); \
	CHECK8(t0, t1, t2, t3, Z14, Z19, k); \
	MOVQ tls+8(FP), BX; \
	VMOVUPD d(BX)(R9*1), sc; \
	MOVQ trs+24(FP), BX; \
	VADDPD d(BX)(R9*1), sc, sc

#define CELLPARENT(d, t0, t1, t2, t3, o0, o1, o2, o3, sc, k) \
	MOVQ cv+32(FP), BX; \
	LEAQ d(BX)(R9*1), BX; \
	LOAD4(BX, R8, Z4, Z5, Z6, Z7); \
	MOVQ pmPhi+72(FP), AX; \
	MOVQ pmClean+80(FP), SI; \
	NODE8(AX, SI, t0, t1, t2, t3, Z4, Z5, Z6, Z7, Z8, Z9, o0, o1, o2, o3); \
	CHECK8(o0, o1, o2, o3, Z14, Z19, k); \
	MOVQ cvs+40(FP), BX; \
	VADDPD d(BX)(R9*1), sc, sc

#define CELLWALK(d, s0, s1, s2, s3, o0, o1, o2, o3, sc, k) \
	MOVQ 0(R10), BX; \
	LEAQ d(BX)(R9*1), BX; \
	WALK8(AX, BX, s0, s1, s2, s3, o0, o1, o2, o3); \
	CHECK8(o0, o1, o2, o3, Z14, Z19, k); \
	MOVQ 8(R10), BX; \
	VADDPD d(BX)(R9*1), sc, sc

// CELLTERM writes the group's term, pc*(log(x) + sc), d bytes after DI,
// from its root likelihood x (SITEL8). Clobbers x, k, f, s, s2, s4, p,
// h and BX.
#define CELLTERM(d, x, sc, k, f, s, s2, s4, p, h) \
	LOG8(x, k, f, s, s2, s4, p, h); \
	VADDPD sc, k, k; \
	MOVQ pc+112(FP), BX; \
	VMULPD d(BX)(R9*1), k, k; \
	VMOVUPD k, d(DI)

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

// AVX-512F pattern kernels: eight patterns per ZMM register, with the
// AVX2 kernels' operation sequence lane for lane. Matrix entries are
// read by embedded broadcast (VMULPD.BCST) straight from the matrix;
// nodeKernelAVX512 holds its first matrix broadcast in Z16..Z31 instead,
// which frees the general register a second matrix pointer would take.
// The running maximum starts from VPXORQ (VXORPD on ZMM needs
// AVX512DQ) and the rescale test compares into opmask registers, so
// every instruction here is AVX512F. An 8-pattern group in which any
// lane needs rescaling is left unwritten; the Go caller runs its two
// 4-pattern groups through the AVX2 kernel.

// DOTB computes acc = m[x][0]*z0 + m[x][1]*z1 + m[x][2]*z2 + m[x][3]*z3,
// left to right, broadcasting matrix row x from off(m). Clobbers Z15.
#define DOTB(m, off, z0, z1, z2, z3, acc) \
	VMULPD.BCST (off+0)(m), z0, acc; \
	VMULPD.BCST (off+8)(m), z1, Z15; \
	VADDPD Z15, acc, acc; \
	VMULPD.BCST (off+16)(m), z2, Z15; \
	VADDPD Z15, acc, acc; \
	VMULPD.BCST (off+24)(m), z3, Z15; \
	VADDPD Z15, acc, acc

// DOTR is DOTB with matrix row x already broadcast in b0..b3.
#define DOTR(b0, b1, b2, b3, z0, z1, z2, z3, acc) \
	VMULPD b0, z0, acc; \
	VMULPD b1, z1, Z15; \
	VADDPD Z15, acc, acc; \
	VMULPD b2, z2, Z15; \
	VADDPD Z15, acc, acc; \
	VMULPD b3, z3, Z15; \
	VADDPD Z15, acc, acc

// RUNNINGMAX8 and RESCALE8 are RUNNINGMAX and RESCALE on ZMM registers:
// K1 marks lanes below 1e-150, K2 lanes above +0, and their AND decides.
// RESCALE8 clobbers zero, K1 and K2.
#define RUNNINGMAX8(w0, w1, w2, w3, mx) \
	VPXORQ mx, mx, mx; \
	VMAXPD mx, w0, mx; \
	VMAXPD mx, w1, mx; \
	VMAXPD mx, w2, mx; \
	VMAXPD mx, w3, mx

#define RESCALE8(mx, zero, bail) \
	VCMPPD.BCST $0x11, rescaleThr<>(SB), mx, K1; \
	VPXORQ zero, zero, zero; \
	VCMPPD $0x1e, zero, mx, K2; \
	KANDW K2, K1, K1; \
	KORTESTW K1, K1; \
	JNZ bail

// func nodeKernelAVX512(l *float64, lstride int, ls *float64, r *float64, rstride int, rs *float64, o *float64, ostride int, os *float64, m0, m1 *subst.Matrix, groups int) (done int)
TEXT ·nodeKernelAVX512(SB), NOSPLIT, $0-104
	MOVQ         m0+72(FP), AX
	VBROADCASTSD 0(AX), Z16
	VBROADCASTSD 8(AX), Z17
	VBROADCASTSD 16(AX), Z18
	VBROADCASTSD 24(AX), Z19
	VBROADCASTSD 32(AX), Z20
	VBROADCASTSD 40(AX), Z21
	VBROADCASTSD 48(AX), Z22
	VBROADCASTSD 56(AX), Z23
	VBROADCASTSD 64(AX), Z24
	VBROADCASTSD 72(AX), Z25
	VBROADCASTSD 80(AX), Z26
	VBROADCASTSD 88(AX), Z27
	VBROADCASTSD 96(AX), Z28
	VBROADCASTSD 104(AX), Z29
	VBROADCASTSD 112(AX), Z30
	VBROADCASTSD 120(AX), Z31
	MOVQ         m1+80(FP), AX
	MOVQ         l+0(FP), SI
	MOVQ         lstride+8(FP), R8
	SHLQ         $3, R8
	MOVQ         ls+16(FP), R9
	MOVQ         r+24(FP), DI
	MOVQ         rstride+32(FP), R10
	SHLQ         $3, R10
	MOVQ         rs+40(FP), R11
	MOVQ         o+48(FP), DX
	MOVQ         ostride+56(FP), R12
	SHLQ         $3, R12
	MOVQ         os+64(FP), R13
	XORQ         CX, CX

node8Loop:
	CMPQ CX, groups+88(FP)
	JGE  node8Done
	LOAD4(SI, R8, Z0, Z1, Z2, Z3)
	LOAD4(DI, R10, Z4, Z5, Z6, Z7)
	DOTR(Z16, Z17, Z18, Z19, Z0, Z1, Z2, Z3, Z8)
	DOTB(AX, 0, Z4, Z5, Z6, Z7, Z9)
	VMULPD Z9, Z8, Z11
	DOTR(Z20, Z21, Z22, Z23, Z0, Z1, Z2, Z3, Z8)
	DOTB(AX, 32, Z4, Z5, Z6, Z7, Z9)
	VMULPD Z9, Z8, Z12
	DOTR(Z24, Z25, Z26, Z27, Z0, Z1, Z2, Z3, Z8)
	DOTB(AX, 64, Z4, Z5, Z6, Z7, Z9)
	VMULPD Z9, Z8, Z13
	DOTR(Z28, Z29, Z30, Z31, Z0, Z1, Z2, Z3, Z8)
	DOTB(AX, 96, Z4, Z5, Z6, Z7, Z9)
	VMULPD Z9, Z8, Z14
	RUNNINGMAX8(Z11, Z12, Z13, Z14, Z10)
	RESCALE8(Z10, Z9, node8Done)
	STORE4(DX, R12, Z11, Z12, Z13, Z14)
	VMOVUPD (R9), Z8
	VADDPD  (R11), Z8, Z8
	VMOVUPD Z8, (R13)
	ADDQ    $64, SI
	ADDQ    $64, R9
	ADDQ    $64, DI
	ADDQ    $64, R11
	ADDQ    $64, DX
	ADDQ    $64, R13
	INCQ    CX
	JMP     node8Loop

node8Done:
	VZEROUPPER
	SHLQ $3, CX
	MOVQ CX, done+96(FP)
	RET

// func walkKernelAVX512(s *float64, sstride int, ss *float64, c *float64, cstride int, cs *float64, m *subst.Matrix, groups int) (done int)
TEXT ·walkKernelAVX512(SB), NOSPLIT, $0-72
	MOVQ m+48(FP), AX
	MOVQ s+0(FP), SI
	MOVQ sstride+8(FP), R8
	SHLQ $3, R8
	MOVQ ss+16(FP), R9
	MOVQ c+24(FP), DI
	MOVQ cstride+32(FP), R10
	SHLQ $3, R10
	MOVQ cs+40(FP), R11
	XORQ CX, CX

walk8Loop:
	CMPQ CX, groups+56(FP)
	JGE  walk8Done
	// The outer-partial lanes are each read once, as memory operands.
	LOAD4(SI, R8, Z0, Z1, Z2, Z3)
	DOTB(AX, 0, Z0, Z1, Z2, Z3, Z8)
	VMULPD (DI), Z8, Z8
	DOTB(AX, 32, Z0, Z1, Z2, Z3, Z9)
	VMULPD (DI)(R10*1), Z9, Z9
	DOTB(AX, 64, Z0, Z1, Z2, Z3, Z10)
	VMULPD (DI)(R10*2), Z10, Z10
	LEAQ   (DI)(R10*2), BX
	DOTB(AX, 96, Z0, Z1, Z2, Z3, Z11)
	VMULPD (BX)(R10*1), Z11, Z11
	RUNNINGMAX8(Z8, Z9, Z10, Z11, Z12)
	RESCALE8(Z12, Z14, walk8Done)
	STORE4(SI, R8, Z8, Z9, Z10, Z11)
	VMOVUPD (R9), Z13
	VADDPD  (R11), Z13, Z13
	VMOVUPD Z13, (R9)
	ADDQ    $64, SI
	ADDQ    $64, R9
	ADDQ    $64, DI
	ADDQ    $64, R11
	INCQ    CX
	JMP     walk8Loop

walk8Done:
	VZEROUPPER
	SHLQ $3, CX
	MOVQ CX, done+64(FP)
	RET

// func liftKernelAVX512(v *float64, vstride int, o *float64, ostride int, m *subst.Matrix, groups int)
TEXT ·liftKernelAVX512(SB), NOSPLIT, $0-48
	MOVQ m+32(FP), AX
	MOVQ v+0(FP), SI
	MOVQ vstride+8(FP), R8
	SHLQ $3, R8
	MOVQ o+16(FP), DI
	MOVQ ostride+24(FP), R10
	SHLQ $3, R10
	MOVQ groups+40(FP), CX

lift8Loop:
	TESTQ CX, CX
	JLE   lift8Done
	LOAD4(SI, R8, Z0, Z1, Z2, Z3)
	DOTB(AX, 0, Z0, Z1, Z2, Z3, Z4)
	DOTB(AX, 32, Z0, Z1, Z2, Z3, Z5)
	DOTB(AX, 64, Z0, Z1, Z2, Z3, Z6)
	DOTB(AX, 96, Z0, Z1, Z2, Z3, Z7)
	STORE4(DI, R10, Z4, Z5, Z6, Z7)
	ADDQ  $64, SI
	ADDQ  $64, DI
	DECQ  CX
	JMP   lift8Loop

lift8Done:
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

// func rootTermsAVX2(s *float64, stride int, ss *float64, pc *float64, f *[4]float64, t *float64, groups int) (done int)
//
// Per group: siteL = f0*s0 + f1*s1 + f2*s2 + f3*s3 as in rootTermScalar;
// bail unless every lane lies in [2^-1022, MaxFloat64] (two ordered
// compares, so 0, -0, negatives, subnormals, +Inf and NaN all bail);
// log(siteL) by archLog's instruction sequence, lane-wise; then
// term = pc*(log+ss), stored to t. The frequencies stay in Y12..Y15.
TEXT ·rootTermsAVX2(SB), NOSPLIT, $0-64
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
	MOVQ  t+40(FP), DI
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
	// term = pc * (log + ss)
	VADDPD  (R9), Y2, Y2
	VMULPD  (R10), Y2, Y2
	VMOVUPD Y2, (DI)
	ADDQ    $32, SI
	ADDQ    $32, R9
	ADDQ    $32, R10
	ADDQ    $32, DI
	INCQ    CX
	JMP     rootLoop

rootDone:
	VZEROUPPER
	SHLQ $2, CX
	MOVQ CX, done+56(FP)
	RET

// func rootTermsAVX512(s *float64, stride int, ss *float64, pc *float64, f *[4]float64, t *float64, groups int) (done int)
//
// rootTermsAVX2 on eight lanes, in AVX512F alone: siteL and the range
// test by SITEL8 and the log by LOG8, which take the constants by
// embedded broadcast (.BCST), do the bit operations as VPANDQ/VPORQ
// (VANDPD and VORPD on ZMM need AVX512DQ), compare into opmask registers
// and make archLog's 0-or-1 mask a zero-masked move of 1 (VMOVAPD.Z).
// The frequencies stay in Z26..Z29, √2/2 in Z30 and 1 in Z31.
TEXT ·rootTermsAVX512(SB), NOSPLIT, $0-64
	MOVQ         f+32(FP), AX
	VBROADCASTSD 0(AX), Z26
	VBROADCASTSD 8(AX), Z27
	VBROADCASTSD 16(AX), Z28
	VBROADCASTSD 24(AX), Z29
	VBROADCASTSD hSqrt2<>(SB), Z30
	VBROADCASTSD one<>(SB), Z31
	KXNORW       K4, K4, K4
	MOVQ         s+0(FP), SI
	MOVQ         stride+8(FP), R8
	SHLQ         $3, R8
	MOVQ         ss+16(FP), R9
	MOVQ         pc+24(FP), R10
	MOVQ         t+40(FP), DI
	MOVQ         groups+48(FP), DX
	XORQ         CX, CX

root8Loop:
	CMPQ CX, DX
	JGE  root8Done
	LOAD4(SI, R8, Z8, Z9, Z10, Z11)
	SITEL8(Z8, Z9, Z10, Z11, Z0, Z1, K4, root8Done)
	LOG8(Z0, Z2, Z1, Z3, Z4, Z5, Z6, Z7) // Z2 = log(siteL)
	// term = pc * (log + ss)
	VADDPD  (R9), Z2, Z2
	VMULPD  (R10), Z2, Z2
	VMOVUPD Z2, (DI)
	ADDQ    $64, SI
	ADDQ    $64, R9
	ADDQ    $64, R10
	ADDQ    $64, DI
	INCQ    CX
	JMP     root8Loop

root8Done:
	VZEROUPPER
	SHLQ $3, CX
	MOVQ CX, done+56(FP)
	RET

// func cellKernelAVX512(tl, tls, tr, trs, cv, cvs *float64, stride int, tm0, tm1, pmPhi, pmClean, am *subst.Matrix, lv *cellLevel, depth int, pc *float64, f *[4]float64, t *float64, lo, groups int) (done int)
//
// One wave cell, 8-pattern group by group, with the group's row in
// registers from the leaves to the root: nodeKernelAVX512's target and
// parent steps, walkKernelAVX512's step per root-path level and
// rootTermsAVX512's term, each lane for lane in the same operation
// order, so every term has the staged kernels' bits. A group is dropped
// when any of its nodes may need rescaling (CHECK8, whose lanes collect
// in the group's mask, K4 for A and K5 for B) or a root likelihood lies
// outside [2^-1022, MaxFloat64], both tested once, at the root; nothing
// of it is written. The rescale threshold stays in Z23.
//
// Groups run in pairs, A then B at each step, so that the two groups'
// dependency chains overlap; a pair with a dropped group, and an odd
// last group, run one group at a time, which stops at the dropped group.
// R9 is the byte offset of group A's first pattern in every row (all
// rows are passed at pattern 0), DI its slot in t, CX its index. Group
// A's scale lane is in Z20 and B's in Z21, and from the parent step on
// their rows are in Z0..Z3 and Z10..Z13 (see the walk); the frequencies
// stay in Z26..Z29, √2/2 in Z30 and 1 in Z31.
TEXT ·cellKernelAVX512(SB), NOSPLIT, $0-160
	MOVQ         f+120(FP), AX
	VBROADCASTSD 0(AX), Z26
	VBROADCASTSD 8(AX), Z27
	VBROADCASTSD 16(AX), Z28
	VBROADCASTSD 24(AX), Z29
	VBROADCASTSD hSqrt2<>(SB), Z30
	VBROADCASTSD one<>(SB), Z31
	VBROADCASTSD rescaleThr<>(SB), Z23
	MOVQ         stride+48(FP), R8
	SHLQ         $3, R8
	MOVQ         lo+136(FP), R9
	SHLQ         $3, R9
	MOVQ         t+128(FP), DI
	MOVQ         groups+144(FP), DX
	XORQ         CX, CX

cellPair:
	LEAQ 2(CX), AX
	CMPQ AX, DX
	JGT  cellOne
	CELLTARGET(0, Z10, Z11, Z12, Z13, Z20, K4)
	CELLTARGET(64, Z16, Z17, Z18, Z22, Z21, K5)
	CELLPARENT(0, Z10, Z11, Z12, Z13, Z0, Z1, Z2, Z3, Z20, K4)
	CELLPARENT(64, Z16, Z17, Z18, Z22, Z10, Z11, Z12, Z13, Z21, K5)

	// One walk step per root-path level: level 0 over am, level k over
	// lv[k].m. R10 walks the levels, R11 counts them down. The rows
	// alternate between registers, two levels per iteration: A between
	// Z0..Z3 and Z4..Z7, B between Z10..Z13 and Z16, Z17, Z18, Z22.
	MOVQ  am+88(FP), AX
	MOVQ  lv+96(FP), R10
	MOVQ  depth+104(FP), R11
	TESTQ R11, R11
	JLE   cellPairRoot

cellPairWalk:
	CELLWALK(0, Z0, Z1, Z2, Z3, Z4, Z5, Z6, Z7, Z20, K4)
	CELLWALK(64, Z10, Z11, Z12, Z13, Z16, Z17, Z18, Z22, Z21, K5)
	DECQ R11
	JLE  cellPairOdd
	ADDQ $24, R10
	MOVQ 16(R10), AX
	CELLWALK(0, Z4, Z5, Z6, Z7, Z0, Z1, Z2, Z3, Z20, K4)
	CELLWALK(64, Z16, Z17, Z18, Z22, Z10, Z11, Z12, Z13, Z21, K5)
	DECQ R11
	JLE  cellPairRoot
	ADDQ $24, R10
	MOVQ 16(R10), AX
	JMP  cellPairWalk

cellPairOdd:
	VMOVAPD Z4, Z0
	VMOVAPD Z5, Z1
	VMOVAPD Z6, Z2
	VMOVAPD Z7, Z3
	VMOVAPD Z16, Z10
	VMOVAPD Z17, Z11
	VMOVAPD Z18, Z12
	VMOVAPD Z22, Z13

cellPairRoot:
	SITEL8(Z0, Z1, Z2, Z3, Z8, Z9, K4, cellOne)
	SITEL8(Z10, Z11, Z12, Z13, Z4, Z9, K5, cellOne)
	CELLTERM(0, Z8, Z20, Z0, Z1, Z2, Z3, Z9, Z5, Z6)
	CELLTERM(64, Z4, Z21, Z10, Z11, Z12, Z13, Z7, Z14, Z16)
	ADDQ $128, R9
	ADDQ $128, DI
	ADDQ $2, CX
	JMP  cellPair

cellOne:
	CMPQ CX, DX
	JGE  cellDone
	CELLTARGET(0, Z10, Z11, Z12, Z13, Z20, K4)
	CELLPARENT(0, Z10, Z11, Z12, Z13, Z0, Z1, Z2, Z3, Z20, K4)
	MOVQ  am+88(FP), AX
	MOVQ  lv+96(FP), R10
	MOVQ  depth+104(FP), R11
	TESTQ R11, R11
	JLE   cellOneRoot

cellOneWalk:
	CELLWALK(0, Z0, Z1, Z2, Z3, Z10, Z11, Z12, Z13, Z20, K4)
	VMOVAPD Z10, Z0
	VMOVAPD Z11, Z1
	VMOVAPD Z12, Z2
	VMOVAPD Z13, Z3
	DECQ    R11
	JLE     cellOneRoot
	ADDQ    $24, R10
	MOVQ    16(R10), AX
	JMP     cellOneWalk

cellOneRoot:
	SITEL8(Z0, Z1, Z2, Z3, Z8, Z9, K4, cellDone)
	CELLTERM(0, Z8, Z20, Z0, Z1, Z2, Z3, Z9, Z11, Z12)
	ADDQ $64, R9
	ADDQ $64, DI
	INCQ CX
	JMP  cellOne

cellDone:
	VZEROUPPER
	SHLQ $3, CX
	MOVQ CX, done+152(FP)
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
