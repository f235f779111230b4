//go:build amd64 && !purego

#include "textflag.h"

// MAC adds the rounded products of the four weights at off(R13) and x[k],
// broadcast in X8, to acc, through tmp.
#define MAC(off, tmp, acc) \
	MOVUPS off(R13), tmp; \
	MULPS  X8, tmp;       \
	ADDPS  tmp, acc

// NEXTK steps to x[k+1] and weight row k+1, looping to label until x ends.
#define NEXTK(label) \
	ADDQ R9, R13;  \
	ADDQ $4, R12;  \
	CMPQ R12, R11; \
	JLT  label

// RELU is `if s < 0 { s = 0 }` on each lane of acc: MAXPS returns its
// destination, +0 here, only where +0 > s, and its source s everywhere else —
// so -0 and NaN pass through with their bits, as in relu.
#define RELU(acc, tmp) \
	XORPS  tmp, tmp;  \
	MAXPS  acc, tmp;  \
	MOVAPS tmp, acc

// VMAC is MAC on eight lanes: the 256-bit load, VMULPS and a separate
// VADDPS, never a fused multiply-add, so each lane rounds its product first.
#define VMAC(off, tmp, acc) \
	VMOVUPS off(R13), tmp;    \
	VMULPS  Y8, tmp, tmp;     \
	VADDPS  tmp, acc, acc

// ZMAC is VMAC on sixteen lanes, with x[k] broadcast in Z8.
#define ZMAC(off, tmp, acc) \
	VMOVUPS off(R13), tmp;    \
	VMULPS  Z8, tmp, tmp;     \
	VADDPS  tmp, acc, acc

// func dense(w, b, x, y []float32, in, out int, relu bool)
//
// Lanes are consecutive outputs, whose weights in row k of w are one load.
// Each accumulator starts at its biases and, per k, adds the rounded product
// of x[k], broadcast, and row k's weights: the scalar dot product's
// arithmetic, bit for bit. A pass over x keeps eight accumulators, so eight
// add chains hide the add latency: eight ZMM registers (128 outputs) where
// hasAVX512, then eight YMM registers (64 outputs) where hasAVX, then eight
// XMM registers (32 outputs) for what is left, or for everything on a CPU
// without AVX.
//
// Registers: SI the block's column in row 0 of w, DX its biases, DI its
// outputs, BX the outputs left, R9 the row stride in bytes (out*4), R8 x,
// R11 x's end, R12 the x cursor, R13 the weight cursor.
TEXT ·dense(SB), NOSPLIT, $0-113
	MOVQ w_base+0(FP), SI
	MOVQ b_base+24(FP), DX
	MOVQ x_base+48(FP), R8
	MOVQ y_base+72(FP), DI
	MOVQ in+96(FP), R11
	MOVQ out+104(FP), BX
	LEAQ (R8)(R11*4), R11
	MOVQ BX, R9
	SHLQ $2, R9
	CMPB ·hasAVX(SB), $0
	JEQ  block32
	CMPB ·hasAVX512(SB), $0
	JEQ  block64

block128:
	CMPQ    BX, $128
	JLT     block64
	VMOVUPS 0(DX), Z0
	VMOVUPS 64(DX), Z1
	VMOVUPS 128(DX), Z2
	VMOVUPS 192(DX), Z3
	VMOVUPS 256(DX), Z4
	VMOVUPS 320(DX), Z5
	VMOVUPS 384(DX), Z6
	VMOVUPS 448(DX), Z7
	MOVQ    R8, R12
	MOVQ    SI, R13
	CMPQ    R12, R11
	JEQ     store128
	PCALIGN $32

loop128:
	VBROADCASTSS (R12), Z8
	ZMAC(0, Z9, Z0)
	ZMAC(64, Z10, Z1)
	ZMAC(128, Z11, Z2)
	ZMAC(192, Z12, Z3)
	ZMAC(256, Z13, Z4)
	ZMAC(320, Z14, Z5)
	ZMAC(384, Z15, Z6)
	ZMAC(448, Z9, Z7)
	NEXTK(loop128)

	// RELU on sixteen lanes, as on eight. The VEX VXORPS clears all of Z8:
	// the EVEX form would need AVX512DQ.
store128:
	CMPB   relu+112(FP), $0
	JEQ    write128
	VXORPS Y8, Y8, Y8
	VMAXPS Z0, Z8, Z0
	VMAXPS Z1, Z8, Z1
	VMAXPS Z2, Z8, Z2
	VMAXPS Z3, Z8, Z3
	VMAXPS Z4, Z8, Z4
	VMAXPS Z5, Z8, Z5
	VMAXPS Z6, Z8, Z6
	VMAXPS Z7, Z8, Z7

write128:
	VMOVUPS Z0, 0(DI)
	VMOVUPS Z1, 64(DI)
	VMOVUPS Z2, 128(DI)
	VMOVUPS Z3, 192(DI)
	VMOVUPS Z4, 256(DI)
	VMOVUPS Z5, 320(DI)
	VMOVUPS Z6, 384(DI)
	VMOVUPS Z7, 448(DI)
	ADDQ    $512, SI
	ADDQ    $512, DX
	ADDQ    $512, DI
	SUBQ    $128, BX
	JMP     block128

block64:
	CMPQ    BX, $64
	JLT     sse
	VMOVUPS 0(DX), Y0
	VMOVUPS 32(DX), Y1
	VMOVUPS 64(DX), Y2
	VMOVUPS 96(DX), Y3
	VMOVUPS 128(DX), Y4
	VMOVUPS 160(DX), Y5
	VMOVUPS 192(DX), Y6
	VMOVUPS 224(DX), Y7
	MOVQ    R8, R12
	MOVQ    SI, R13
	CMPQ    R12, R11
	JEQ     store64
	PCALIGN $32

loop64:
	VBROADCASTSS (R12), Y8
	VMAC(0, Y9, Y0)
	VMAC(32, Y10, Y1)
	VMAC(64, Y11, Y2)
	VMAC(96, Y12, Y3)
	VMAC(128, Y13, Y4)
	VMAC(160, Y14, Y5)
	VMAC(192, Y15, Y6)
	VMAC(224, Y9, Y7)
	NEXTK(loop64)

	// RELU on eight lanes: VMAXPS takes +0, its first source, only where
	// +0 > s.
store64:
	CMPB   relu+112(FP), $0
	JEQ    write64
	VXORPS Y8, Y8, Y8
	VMAXPS Y0, Y8, Y0
	VMAXPS Y1, Y8, Y1
	VMAXPS Y2, Y8, Y2
	VMAXPS Y3, Y8, Y3
	VMAXPS Y4, Y8, Y4
	VMAXPS Y5, Y8, Y5
	VMAXPS Y6, Y8, Y6
	VMAXPS Y7, Y8, Y7

write64:
	VMOVUPS Y0, 0(DI)
	VMOVUPS Y1, 32(DI)
	VMOVUPS Y2, 64(DI)
	VMOVUPS Y3, 96(DI)
	VMOVUPS Y4, 128(DI)
	VMOVUPS Y5, 160(DI)
	VMOVUPS Y6, 192(DI)
	VMOVUPS Y7, 224(DI)
	ADDQ    $256, SI
	ADDQ    $256, DX
	ADDQ    $256, DI
	SUBQ    $64, BX
	JMP     block64

	// The SSE2 blocks take the last out mod 64 outputs with the upper YMM
	// and ZMM bits cleared, so their legacy encodings pay no transition
	// penalty.
sse:
	VZEROUPPER

block32:
	CMPQ   BX, $32
	JLT    block4
	MOVUPS 0(DX), X0
	MOVUPS 16(DX), X1
	MOVUPS 32(DX), X2
	MOVUPS 48(DX), X3
	MOVUPS 64(DX), X4
	MOVUPS 80(DX), X5
	MOVUPS 96(DX), X6
	MOVUPS 112(DX), X7
	MOVQ   R8, R12
	MOVQ   SI, R13
	CMPQ   R12, R11
	JEQ    store32

	// Both inner loops start on a 32-byte boundary wherever the linker
	// places the function, so code placement cannot change their alignment.
	// Branch to the label after a PCALIGN: a label just before one lands on the first pad.
	PCALIGN $32

loop32:
	MOVSS  (R12), X8
	SHUFPS $0x00, X8, X8
	MAC(0, X9, X0)
	MAC(16, X10, X1)
	MAC(32, X11, X2)
	MAC(48, X12, X3)
	MAC(64, X13, X4)
	MAC(80, X14, X5)
	MAC(96, X15, X6)
	MAC(112, X9, X7)
	NEXTK(loop32)

store32:
	CMPB relu+112(FP), $0
	JEQ  write32
	RELU(X0, X8)
	RELU(X1, X9)
	RELU(X2, X10)
	RELU(X3, X11)
	RELU(X4, X12)
	RELU(X5, X13)
	RELU(X6, X14)
	RELU(X7, X15)

write32:
	MOVUPS X0, 0(DI)
	MOVUPS X1, 16(DI)
	MOVUPS X2, 32(DI)
	MOVUPS X3, 48(DI)
	MOVUPS X4, 64(DI)
	MOVUPS X5, 80(DI)
	MOVUPS X6, 96(DI)
	MOVUPS X7, 112(DI)
	ADDQ   $128, SI
	ADDQ   $128, DX
	ADDQ   $128, DI
	SUBQ   $32, BX
	JMP    block32

	// The last out mod 32 outputs, four to a pass as scalar chains (MULPS
	// and ADDPS act on the low lane as MULSS and ADDSS would; four chains
	// are add-latency bound as lanes or as registers), so no load or store
	// passes w[in*out-1], b[out-1] or y[out-1]. Chain j takes the pass's
	// output min(j, t-1) of t, at byte offset 0, AX, CX or R10: chains past
	// the last recompute it and store the same bits again.
block4:
	LEAQ    -4(BX*4), R10
	TESTQ   BX, BX
	JEQ     done
	MOVQ    $12, CX
	CMPQ    R10, CX
	CMOVQGT CX, R10
	MOVQ    $8, CX
	CMPQ    R10, CX
	CMOVQLT R10, CX
	MOVQ    $4, AX
	CMPQ    R10, AX
	CMOVQLT R10, AX
	MOVSS   (DX), X0
	MOVSS   (DX)(AX*1), X1
	MOVSS   (DX)(CX*1), X2
	MOVSS   (DX)(R10*1), X3
	MOVQ    R8, R12
	MOVQ    SI, R13
	CMPQ    R12, R11
	JEQ     store4
	PCALIGN $32

loop4:
	MOVSS (R12), X8
	MOVSS (R13), X9
	MOVSS (R13)(AX*1), X10
	MOVSS (R13)(CX*1), X11
	MOVSS (R13)(R10*1), X12
	MULPS X8, X9
	MULPS X8, X10
	MULPS X8, X11
	MULPS X8, X12
	ADDPS X9, X0
	ADDPS X10, X1
	ADDPS X11, X2
	ADDPS X12, X3
	NEXTK(loop4)

store4:
	CMPB relu+112(FP), $0
	JEQ  write4
	RELU(X0, X9)
	RELU(X1, X10)
	RELU(X2, X11)
	RELU(X3, X12)

write4:
	MOVSS X3, (DI)(R10*1)
	MOVSS X2, (DI)(CX*1)
	MOVSS X1, (DI)(AX*1)
	MOVSS X0, (DI)
	ADDQ  $16, SI
	ADDQ  $16, DX
	ADDQ  $16, DI
	SUBQ  $4, BX
	JGT   block4

done:
	RET

// GATHER4 puts x[r][k] of the four rows in lane r of X8, through X9-X11.
#define GATHER4 \
	MOVSS    (R8), X8;         \
	MOVSS    (R8)(R9*1), X9;   \
	MOVSS    (R8)(R9*2), X10;  \
	MOVSS    (R8)(R13*1), X11; \
	UNPCKLPS X9, X8;           \
	UNPCKLPS X11, X10;         \
	MOVLHPS  X10, X8

// BMAC adds the rounded products of the four lanes of X8 and the weight at
// off, broadcast, to acc, through tmp.
#define BMAC(off, tmp, acc) \
	MOVSS  off, tmp;        \
	SHUFPS $0x00, tmp, tmp; \
	MULPS  X8, tmp;         \
	ADDPS  tmp, acc

// NEXTROWK steps to x[r][k+1] and weight row k+1, looping to label until
// row 0 of x ends.
#define NEXTROWK(label) \
	ADDQ R10, SI;  \
	ADDQ $4, R8;   \
	CMPQ R8, R11;  \
	JLT  label

// func denseRows4(w, b, x, y []float32, in, out int, relu bool)
//
// dense on four rows at once, for 1 <= out <= 4: lane r is row r of x, so
// one add chain serves four rows. Each accumulator starts at its bias and,
// per k ascending, adds the rounded product of x[r][k] and the broadcast
// weight: lane r is dense's arithmetic on row r, bit for bit. Chain j takes
// output min(j, out-1), at byte offset 0, AX, CX or BX, clamped as block4
// clamps; for out <= 2 two chains run and chains 2 and 3 copy chain 1. The
// store rotates the lanes back into rows of y.
//
// Registers: SI the weight cursor, DX b, DI y, R8 the row-0 cursor in x,
// R9 the row stride in bytes (in*4), R13 three strides, R11 row 0's end,
// R10 the output stride in bytes (out*4).
TEXT ·denseRows4(SB), NOSPLIT, $0-113
	MOVQ    w_base+0(FP), SI
	MOVQ    b_base+24(FP), DX
	MOVQ    x_base+48(FP), R8
	MOVQ    y_base+72(FP), DI
	MOVQ    in+96(FP), R9
	MOVQ    out+104(FP), R10
	SHLQ    $2, R9
	SHLQ    $2, R10
	LEAQ    (R8)(R9*1), R11
	LEAQ    (R9)(R9*2), R13
	LEAQ    -4(R10), BX
	MOVQ    $8, CX
	CMPQ    BX, CX
	CMOVQLT BX, CX
	MOVQ    $4, AX
	CMPQ    BX, AX
	CMOVQLT BX, AX
	MOVSS   (DX), X0
	SHUFPS  $0x00, X0, X0
	MOVSS   (DX)(AX*1), X1
	SHUFPS  $0x00, X1, X1
	CMPQ    BX, $4
	JGT     rows4
	CMPQ    R8, R11
	JEQ     store2
	PCALIGN $32

loop2:
	GATHER4
	BMAC((SI), X12, X0)
	BMAC((SI)(AX*1), X13, X1)
	NEXTROWK(loop2)

store2:
	MOVAPS X1, X2
	MOVAPS X1, X3
	JMP    storerows

rows4:
	MOVSS   (DX)(CX*1), X2
	SHUFPS  $0x00, X2, X2
	MOVSS   (DX)(BX*1), X3
	SHUFPS  $0x00, X3, X3
	CMPQ    R8, R11
	JEQ     storerows
	PCALIGN $32

loop4rows:
	GATHER4
	BMAC((SI), X12, X0)
	BMAC((SI)(AX*1), X13, X1)
	BMAC((SI)(CX*1), X14, X2)
	BMAC((SI)(BX*1), X15, X3)
	NEXTROWK(loop4rows)

storerows:
	MOVQ $4, R8
	CMPB relu+112(FP), $0
	JEQ  writerow
	RELU(X0, X9)
	RELU(X1, X10)
	RELU(X2, X11)
	RELU(X3, X12)

writerow:
	MOVSS  X3, (DI)(BX*1)
	MOVSS  X2, (DI)(CX*1)
	MOVSS  X1, (DI)(AX*1)
	MOVSS  X0, (DI)
	SHUFPS $0x39, X0, X0
	SHUFPS $0x39, X1, X1
	SHUFPS $0x39, X2, X2
	SHUFPS $0x39, X3, X3
	ADDQ   R10, DI
	DECQ   R8
	JNZ    writerow
	RET

// XROWS8 loads x[r][k..k+3] of the eight rows, rows r and r+4 in the two
// 128-bit halves of one register, and transposes each half, so lane r of
// Y4+j holds x[r][k+j].
#define XROWS8 \
	VMOVUPS     (R8), X4;                 \
	VINSERTF128 $1, (R14), Y4, Y4;        \
	VMOVUPS     (R8)(R9*1), X5;           \
	VINSERTF128 $1, (R14)(R9*1), Y5, Y5;  \
	VMOVUPS     (R8)(R9*2), X6;           \
	VINSERTF128 $1, (R14)(R9*2), Y6, Y6;  \
	VMOVUPS     (R8)(R13*1), X7;          \
	VINSERTF128 $1, (R14)(R13*1), Y7, Y7; \
	VUNPCKLPS   Y5, Y4, Y8;               \
	VUNPCKHPS   Y5, Y4, Y9;               \
	VUNPCKLPS   Y7, Y6, Y10;              \
	VUNPCKHPS   Y7, Y6, Y11;              \
	VSHUFPS     $0x44, Y10, Y8, Y4;       \
	VSHUFPS     $0xEE, Y10, Y8, Y5;       \
	VSHUFPS     $0x44, Y11, Y9, Y6;       \
	VSHUFPS     $0xEE, Y11, Y9, Y7

// XROW8 puts x[r][k] of the eight rows in lane r of Y4, through X5.
#define XROW8 \
	VMOVSS      (R8), X4;                      \
	VINSERTPS   $0x10, (R8)(R9*1), X4, X4;     \
	VINSERTPS   $0x20, (R8)(R9*2), X4, X4;     \
	VINSERTPS   $0x30, (R8)(R13*1), X4, X4;    \
	VMOVSS      (R14), X5;                     \
	VINSERTPS   $0x10, (R14)(R9*1), X5, X5;    \
	VINSERTPS   $0x20, (R14)(R9*2), X5, X5;    \
	VINSERTPS   $0x30, (R14)(R13*1), X5, X5;   \
	VINSERTF128 $1, X5, Y4, Y4

// YMAC adds the rounded products of the eight lanes of xr and the weight at
// off, broadcast, to acc, through tmp: BMAC on eight lanes.
#define YMAC(off, xr, tmp, acc) \
	VBROADCASTSS off, tmp;     \
	VMULPS       xr, tmp, tmp; \
	VADDPS       tmp, acc, acc

// YMAC2 and YMAC4 run chains 0-1 or 0-3 on the x values in xr, then step
// to weight row k+1.
#define YMAC2(xr) \
	YMAC((SI), xr, Y12, Y0);       \
	YMAC((SI)(AX*1), xr, Y13, Y1); \
	ADDQ R10, SI

#define YMAC4(xr) \
	YMAC((SI), xr, Y12, Y0);       \
	YMAC((SI)(AX*1), xr, Y13, Y1); \
	YMAC((SI)(CX*1), xr, Y14, Y2); \
	YMAC((SI)(BX*1), xr, Y15, Y3); \
	ADDQ R10, SI

// NEXTROWS8 steps both row cursors n floats on, looping to label until row
// 0's cursor reaches end.
#define NEXTROWS8(n, end, label) \
	ADDQ $(4*n), R8;  \
	ADDQ $(4*n), R14; \
	CMPQ R8, end;     \
	JLT  label

// func denseRows8(w, b, x, y []float32, in, out int, relu bool)
//
// denseRows4 on eight rows in AVX, for 1 <= out <= 4: lane r of each YMM
// accumulator is row r of x, and chain j takes output min(j, out-1) at byte
// offset 0, AX, CX or BX, clamped as denseRows4 clamps; for out <= 2 two
// chains run and chains 2 and 3 copy chain 1. Each group of four k loads
// four floats of every row and transposes them (XROWS8); the in mod 4 k
// left gather one float a row (XROW8). Per k ascending each lane adds the
// rounded product of x[r][k] and the broadcast weight, a VMULPS and then a
// VADDPS: dense's arithmetic on row r, bit for bit. The store clears the
// upper halves and rotates rows r and r+4 out of the lanes together.
//
// Registers: SI the weight cursor, DX b and then row 0's end, DI y (rows
// 0-3), R14 the row-4 cursor in x and then y's row 4, R8 the row-0 cursor
// and then the rows left to store, R9 the row stride in bytes (in*4), R13
// three strides, R11 the end of row 0's groups of four, R10 the output
// stride in bytes (out*4).
TEXT ·denseRows8(SB), NOSPLIT, $0-113
	MOVQ         w_base+0(FP), SI
	MOVQ         b_base+24(FP), DX
	MOVQ         x_base+48(FP), R8
	MOVQ         y_base+72(FP), DI
	MOVQ         in+96(FP), R9
	MOVQ         out+104(FP), R10
	MOVQ         R9, R11
	ANDQ         $-4, R11
	SHLQ         $2, R9
	SHLQ         $2, R10
	LEAQ         (R8)(R11*4), R11
	LEAQ         (R9)(R9*2), R13
	LEAQ         (R8)(R9*4), R14
	LEAQ         -4(R10), BX
	MOVQ         $8, CX
	CMPQ         BX, CX
	CMOVQLT      BX, CX
	MOVQ         $4, AX
	CMPQ         BX, AX
	CMOVQLT      BX, AX
	VBROADCASTSS (DX), Y0
	VBROADCASTSS (DX)(AX*1), Y1
	VBROADCASTSS (DX)(CX*1), Y2
	VBROADCASTSS (DX)(BX*1), Y3
	LEAQ         (R8)(R9*1), DX
	CMPQ         BX, $4
	JGT          rows8x4
	CMPQ         R8, R11
	JEQ          tail8x2
	PCALIGN      $32

loop8x2:
	XROWS8
	YMAC2(Y4)
	YMAC2(Y5)
	YMAC2(Y6)
	YMAC2(Y7)
	NEXTROWS8(4, R11, loop8x2)

tail8x2:
	CMPQ R8, DX
	JEQ  store8x2

k8x2:
	XROW8
	YMAC2(Y4)
	NEXTROWS8(1, DX, k8x2)

store8x2:
	VMOVAPS Y1, Y2
	VMOVAPS Y1, Y3
	JMP     store8

rows8x4:
	CMPQ    R8, R11
	JEQ     tail8x4
	PCALIGN $32

loop8x4:
	XROWS8
	YMAC4(Y4)
	YMAC4(Y5)
	YMAC4(Y6)
	YMAC4(Y7)
	NEXTROWS8(4, R11, loop8x4)

tail8x4:
	CMPQ R8, DX
	JEQ  store8

k8x4:
	XROW8
	YMAC4(Y4)
	NEXTROWS8(1, DX, k8x4)

store8:
	CMPB   relu+112(FP), $0
	JEQ    write8
	VXORPS Y8, Y8, Y8
	VMAXPS Y0, Y8, Y0
	VMAXPS Y1, Y8, Y1
	VMAXPS Y2, Y8, Y2
	VMAXPS Y3, Y8, Y3

write8:
	VEXTRACTF128 $1, Y0, X4
	VEXTRACTF128 $1, Y1, X5
	VEXTRACTF128 $1, Y2, X6
	VEXTRACTF128 $1, Y3, X7
	VZEROUPPER
	LEAQ         (DI)(R10*4), R14
	MOVQ         $4, R8

writerow8:
	MOVSS  X3, (DI)(BX*1)
	MOVSS  X2, (DI)(CX*1)
	MOVSS  X1, (DI)(AX*1)
	MOVSS  X0, (DI)
	MOVSS  X7, (R14)(BX*1)
	MOVSS  X6, (R14)(CX*1)
	MOVSS  X5, (R14)(AX*1)
	MOVSS  X4, (R14)
	SHUFPS $0x39, X0, X0
	SHUFPS $0x39, X1, X1
	SHUFPS $0x39, X2, X2
	SHUFPS $0x39, X3, X3
	SHUFPS $0x39, X4, X4
	SHUFPS $0x39, X5, X5
	SHUFPS $0x39, X6, X6
	SHUFPS $0x39, X7, X7
	ADDQ   R10, DI
	ADDQ   R10, R14
	DECQ   R8
	JNZ    writerow8
	RET

// func cpuFeatures() (avx, avx512 bool)
//
// CPUID.1:ECX reports AVX (bit 28) and OSXSAVE (bit 27); XGETBV's XCR0 then
// says whether the OS saves the XMM and YMM state (bits 1-2), which AVX
// needs, and the opmask and ZMM state too (bits 5-7), which AVX-512F needs
// besides CPUID.(7,0):EBX bit 16, once CPUID.0 says leaf 7 exists.
TEXT ·cpuFeatures(SB), NOSPLIT, $0-2
	MOVB  $0, avx+0(FP)
	MOVB  $0, avx512+1(FP)
	XORL  AX, AX
	CPUID
	MOVL  AX, R8
	MOVL  $1, AX
	XORL  CX, CX
	CPUID
	ANDL  $0x18000000, CX
	CMPL  CX, $0x18000000
	JNE   done
	XORL  CX, CX
	XGETBV
	MOVL  AX, R9
	ANDL  $6, AX
	CMPL  AX, $6
	JNE   done
	MOVB  $1, avx+0(FP)
	ANDL  $0xE6, R9
	CMPL  R9, $0xE6
	JNE   done
	CMPL  R8, $7
	JLT   done
	MOVL  $7, AX
	XORL  CX, CX
	CPUID
	TESTL $0x00010000, BX
	SETNE avx512+1(FP)

done:
	RET
