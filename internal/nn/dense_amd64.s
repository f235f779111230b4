//go:build amd64 && !purego

#include "textflag.h"

// ROW points reg at weight row min(o+j, last) and broadcasts that row's bias
// into acc.
#define ROW(j, reg, acc) \
	MOVQ    BX, reg;          \
	ADDQ    $j, reg;          \
	CMPQ    reg, CX;          \
	CMOVQGT CX, reg;          \
	MOVSS   (DX)(reg*4), acc; \
	SHUFPS  $0x00, acc, acc;  \
	SUBQ    BX, reg;          \
	IMULQ   R9, reg;          \
	ADDQ    SI, reg

// MAC adds the rounded product of row reg's weight k and the lane vector X8
// to acc, through tmp.
#define MAC(reg, tmp, acc) \
	MOVSS  (reg)(AX*1), tmp; \
	SHUFPS $0x00, tmp, tmp;  \
	MULPS  X8, tmp;          \
	ADDPS  tmp, acc

// RELU is `if s < 0 { s = 0 }` on each lane of acc: MAXPS returns its
// destination, +0 here, only where +0 > s, and its source s everywhere else —
// so -0 and NaN pass through with their bits, as in relu.
#define RELU(acc, tmp) \
	XORPS  tmp, tmp;  \
	MAXPS  acc, tmp;  \
	MOVAPS tmp, acc

// OUT stores acc at y's output row min(o+j, last).
#define OUT(j, acc) \
	MOVQ    BX, R10;  \
	ADDQ    $j, R10;  \
	CMPQ    R10, CX;  \
	CMOVQGT CX, R10;  \
	SHLQ    $4, R10;  \
	MOVUPS  acc, (DI)(R10*1)

// func denseLanes(w, b, x, y []float32, in, out int, relu bool)
//
// For each output o and lane: y[o*4+lane] = b[o] + w[o*in]*x[lane] + ... +
// w[o*in+in-1]*x[(in-1)*4+lane], summed left to right, then ReLU if relu.
//
// Four outputs a pass over x, one XMM accumulator each, so four add chains
// run at once. Each accumulator starts at its broadcast bias and adds the
// rounded product MULPS gives, in ascending k: every lane is the scalar dot
// product's arithmetic, bit for bit. Past the last output the rows alias it,
// as in Layer.forward: the last block recomputes the last output and stores
// the same bits again, so there is no tail loop.
//
// Registers: SI the block's first weight row, R11-R13 its other three, DX the
// biases, R8 x, DI y, R9 the row stride in bytes (in*4), CX the last output,
// BX the block's first output, AX k*4, R10 scratch.
TEXT ·denseLanes(SB), NOSPLIT, $0-113
	MOVQ w_base+0(FP), SI
	MOVQ b_base+24(FP), DX
	MOVQ x_base+48(FP), R8
	MOVQ y_base+72(FP), DI
	MOVQ in+96(FP), R9
	MOVQ out+104(FP), CX
	SHLQ $2, R9
	DECQ CX
	JLT  done
	XORQ BX, BX

block:
	MOVSS  (DX)(BX*4), X0
	SHUFPS $0x00, X0, X0
	ROW(1, R11, X1)
	ROW(2, R12, X2)
	ROW(3, R13, X3)
	XORQ   AX, AX
	TESTQ  R9, R9
	JEQ    store

	// The inner loop starts on a 32-byte boundary wherever the linker
	// places the function, so code placement cannot change its alignment.
	PCALIGN $32

kloop:
	MOVUPS (R8)(AX*4), X8
	MAC(SI, X4, X0)
	MAC(R11, X5, X1)
	MAC(R12, X6, X2)
	MAC(R13, X7, X3)
	ADDQ   $4, AX
	CMPQ   AX, R9
	JLT    kloop

store:
	CMPB   relu+112(FP), $0
	JEQ    write
	RELU(X0, X4)
	RELU(X1, X5)
	RELU(X2, X6)
	RELU(X3, X7)

write:
	MOVQ   BX, R10
	SHLQ   $4, R10
	MOVUPS X0, (DI)(R10*1)
	OUT(1, X1)
	OUT(2, X2)
	OUT(3, X3)
	LEAQ   (SI)(R9*4), SI
	ADDQ   $4, BX
	CMPQ   BX, CX
	JLE    block

done:
	RET
