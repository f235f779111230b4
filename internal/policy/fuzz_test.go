package policy

import (
	"encoding/binary"
	"errors"
	"testing"
)

// insnBytes is the fuzz encoding of one instruction: op, dst, src, a
// signed 8-bit jump offset and a little-endian signed 32-bit immediate.
// Opcodes, registers and offsets range a little past the valid ones so
// the verifier's rejections are exercised too; a call's immediate is
// reduced to helpers 0-3, so 1-3 are whitelisted.
const insnBytes = 8

func decodeProgram(b []byte) Program {
	p := make(Program, 0, len(b)/insnBytes)
	for ; len(b) >= insnBytes; b = b[insnBytes:] {
		ins := Instruction{
			Op:  OpCode(b[0] % uint8(len(opNames)+2)),
			Dst: b[1] % (NumRegs + 1),
			Src: b[2] % (NumRegs + 1),
			Off: int16(int8(b[3])),
			Imm: int64(int32(binary.LittleEndian.Uint32(b[4:]))),
		}
		if ins.Op == OpCall {
			ins.Imm &= 3
		}
		p = append(p, ins)
	}
	return p
}

// encodeProgram inverts decodeProgram for programs whose offsets fit in 8
// bits and immediates in 32; it builds the seed corpus.
func encodeProgram(p Program) []byte {
	b := make([]byte, 0, len(p)*insnBytes)
	for _, ins := range p {
		b = append(b, uint8(ins.Op), ins.Dst, ins.Src, uint8(int8(ins.Off)))
		b = binary.LittleEndian.AppendUint32(b, uint32(int32(ins.Imm)))
	}
	return b
}

// FuzzPolicyVerify is the sandbox contract: every program Verify accepts
// runs to its exit without panicking, whatever ctx arrives in r1 and
// whatever the helpers return, and the only fault it can raise is division
// by a zero register. Seeds live in testdata/fuzz/FuzzPolicyVerify.
func FuzzPolicyVerify(f *testing.F) {
	f.Add(encodeProgram(Compile(DefaultAdaptiveConfig())), int64(8), int64(39), int64(0), int64(0))
	f.Fuzz(func(t *testing.T, code []byte, ctx, h1, h2, h3 int64) {
		helpers := HelperSet{
			1: func([5]int64) int64 { return h1 },
			2: func(args [5]int64) int64 { return h2 ^ args[0] },
			3: func(args [5]int64) int64 { return h3 * args[4] },
		}
		p := decodeProgram(code)
		if Verify(p, helpers) != nil {
			return
		}
		_, err := runVerified(p, helpers, ctx)
		var re *RunError
		if err != nil && (!errors.As(err, &re) || re.Reason != "division by zero" || p[re.PC].Op != OpDiv) {
			t.Fatalf("verified program faulted: %v", err)
		}
	})
}
