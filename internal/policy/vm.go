// Package policy implements LAKE's custom execution policies (§4.2, §4.3):
// the mechanism by which kernel subsystems modulate between CPU and
// accelerator execution at function-call granularity, and back off when the
// accelerator is contended by user space.
//
// The paper lets developers "write and install such policies using eBPF".
// This package provides the analogous sandbox: a small register-machine
// bytecode with a verifier that statically guarantees termination (forward
// jumps only), memory safety (registers only, no loads/stores) and helper
// whitelisting — the same contract eBPF's verifier enforces for this class
// of program. As eBPF passes ctx, a program receives its decision context in
// r1: the pending batch size.
//
// There is one Fig 3 policy, and it ships as bytecode: Compile emits it from
// an AdaptiveConfig, and Adaptive runs the verified program (Compile's, or a
// caller's through Load) against the Fig 3 helper set:
//
//	helper         r0
//	HelperUtilAvg  floor(moving-average GPU utilization %), querying at
//	               most once per 5 ms of virtual time
//
// policy.Func is the interface callers route through.
package policy

import (
	"fmt"
)

// OpCode enumerates the VM's instruction set.
type OpCode uint8

// Instruction opcodes. ALU ops have register and immediate variants;
// conditional jumps compare Dst against Imm (…Imm) or against Src (…X).
const (
	OpMov    OpCode = iota // Dst = Src
	OpMovImm               // Dst = Imm
	OpAdd                  // Dst += Src
	OpAddImm               // Dst += Imm
	OpSub                  // Dst -= Src
	OpSubImm               // Dst -= Imm
	OpMul                  // Dst *= Src
	OpMulImm               // Dst *= Imm
	OpDiv                  // Dst /= Src (runtime error if Src == 0)
	OpDivImm               // Dst /= Imm (verifier rejects Imm == 0)
	OpJmp                  // pc += Off
	OpJeqImm               // if Dst == Imm: pc += Off
	OpJneImm               // if Dst != Imm: pc += Off
	OpJgtImm               // if Dst >  Imm: pc += Off
	OpJgeImm               // if Dst >= Imm: pc += Off
	OpJltImm               // if Dst <  Imm: pc += Off
	OpJleImm               // if Dst <= Imm: pc += Off
	OpJeqX                 // if Dst == Src: pc += Off
	OpJgeX                 // if Dst >= Src: pc += Off
	OpJltX                 // if Dst <  Src: pc += Off
	OpCall                 // r0 = helper[Imm](r1..r5)
	OpExit                 // return r0
)

var opNames = [...]string{
	"mov", "mov.imm", "add", "add.imm", "sub", "sub.imm", "mul", "mul.imm",
	"div", "div.imm", "jmp", "jeq.imm", "jne.imm", "jgt.imm", "jge.imm",
	"jlt.imm", "jle.imm", "jeq.x", "jge.x", "jlt.x", "call", "exit",
}

func (op OpCode) String() string {
	if int(op) < len(opNames) {
		return opNames[op]
	}
	return fmt.Sprintf("op(%d)", uint8(op))
}

// NumRegs is the register file size (r0 = return value, r1 = ctx on entry,
// r1..r5 = helper arguments, r6..r15 = callee scratch), mirroring eBPF's
// layout.
const NumRegs = 16

// MaxInstructions bounds program size, like the eBPF verifier's complexity
// limit.
const MaxInstructions = 512

// Instruction is one VM instruction.
type Instruction struct {
	Op       OpCode
	Dst, Src uint8
	// Off is a forward jump distance in instructions (applied after the
	// implicit pc++).
	Off int16
	// Imm is the immediate operand or helper number for OpCall.
	Imm int64
}

// Program is a verified-or-not sequence of instructions.
type Program []Instruction

// Helper is a function exposed to programs. Arguments arrive in r1..r5 and
// the result must be placed in r0 by the VM (the helper returns it).
type Helper func(args [5]int64) int64

// HelperSet maps helper numbers to implementations. Verification pins the
// set: running with a different set re-verifies.
type HelperSet map[int64]Helper

// VerifyError describes a verifier rejection.
type VerifyError struct {
	PC     int
	Reason string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("policy: verifier rejected instruction %d: %s", e.PC, e.Reason)
}

// Verify statically checks the program against the eBPF-style safety
// contract: bounded size, known opcodes, valid registers, strictly forward
// in-bounds jumps (termination), no immediate division by zero, only
// whitelisted helpers, and termination by OpExit on every straight-line
// path (guaranteed by requiring the final instruction to be OpExit and all
// jumps to land in-bounds).
func Verify(p Program, helpers HelperSet) error {
	if len(p) == 0 {
		return &VerifyError{PC: 0, Reason: "empty program"}
	}
	if len(p) > MaxInstructions {
		return &VerifyError{PC: 0, Reason: fmt.Sprintf("program has %d instructions, limit %d", len(p), MaxInstructions)}
	}
	if p[len(p)-1].Op != OpExit {
		return &VerifyError{PC: len(p) - 1, Reason: "program does not end with exit"}
	}
	for pc, ins := range p {
		if int(ins.Op) >= len(opNames) {
			return &VerifyError{PC: pc, Reason: fmt.Sprintf("unknown opcode %d", ins.Op)}
		}
		if ins.Dst >= NumRegs || ins.Src >= NumRegs {
			return &VerifyError{PC: pc, Reason: "register out of range"}
		}
		switch ins.Op {
		case OpDivImm:
			if ins.Imm == 0 {
				return &VerifyError{PC: pc, Reason: "division by zero immediate"}
			}
		case OpJmp, OpJeqImm, OpJneImm, OpJgtImm, OpJgeImm, OpJltImm, OpJleImm, OpJeqX, OpJgeX, OpJltX:
			if ins.Off <= 0 {
				return &VerifyError{PC: pc, Reason: "backward or zero jump (termination)"}
			}
			// The target must be a real instruction; combined with the
			// final-OpExit rule this makes falling off the end impossible.
			if pc+1+int(ins.Off) >= len(p) {
				return &VerifyError{PC: pc, Reason: "jump out of bounds"}
			}
		case OpCall:
			if _, ok := helpers[ins.Imm]; !ok {
				return &VerifyError{PC: pc, Reason: fmt.Sprintf("unknown helper %d", ins.Imm)}
			}
		}
	}
	return nil
}

// RunError describes a runtime fault (only division by a zero register can
// occur in verified programs).
type RunError struct {
	PC     int
	Reason string
}

func (e *RunError) Error() string {
	return fmt.Sprintf("policy: runtime fault at instruction %d: %s", e.PC, e.Reason)
}

// Run verifies and executes the program with the given helpers and ctx in
// r1, returning r0 at exit.
func Run(p Program, helpers HelperSet, ctx int64) (int64, error) {
	if err := Verify(p, helpers); err != nil {
		return 0, err
	}
	return runVerified(p, helpers, ctx)
}

func runVerified(p Program, helpers HelperSet, ctx int64) (int64, error) {
	var regs [NumRegs]int64
	regs[1] = ctx
	pc := 0
	for pc < len(p) {
		ins := p[pc]
		pc++
		switch ins.Op {
		case OpMov:
			regs[ins.Dst] = regs[ins.Src]
		case OpMovImm:
			regs[ins.Dst] = ins.Imm
		case OpAdd:
			regs[ins.Dst] += regs[ins.Src]
		case OpAddImm:
			regs[ins.Dst] += ins.Imm
		case OpSub:
			regs[ins.Dst] -= regs[ins.Src]
		case OpSubImm:
			regs[ins.Dst] -= ins.Imm
		case OpMul:
			regs[ins.Dst] *= regs[ins.Src]
		case OpMulImm:
			regs[ins.Dst] *= ins.Imm
		case OpDiv:
			if regs[ins.Src] == 0 {
				return 0, &RunError{PC: pc - 1, Reason: "division by zero"}
			}
			regs[ins.Dst] /= regs[ins.Src]
		case OpDivImm:
			regs[ins.Dst] /= ins.Imm
		case OpJmp:
			pc += int(ins.Off)
		case OpJeqImm:
			if regs[ins.Dst] == ins.Imm {
				pc += int(ins.Off)
			}
		case OpJneImm:
			if regs[ins.Dst] != ins.Imm {
				pc += int(ins.Off)
			}
		case OpJgtImm:
			if regs[ins.Dst] > ins.Imm {
				pc += int(ins.Off)
			}
		case OpJgeImm:
			if regs[ins.Dst] >= ins.Imm {
				pc += int(ins.Off)
			}
		case OpJltImm:
			if regs[ins.Dst] < ins.Imm {
				pc += int(ins.Off)
			}
		case OpJleImm:
			if regs[ins.Dst] <= ins.Imm {
				pc += int(ins.Off)
			}
		case OpJeqX:
			if regs[ins.Dst] == regs[ins.Src] {
				pc += int(ins.Off)
			}
		case OpJgeX:
			if regs[ins.Dst] >= regs[ins.Src] {
				pc += int(ins.Off)
			}
		case OpJltX:
			if regs[ins.Dst] < regs[ins.Src] {
				pc += int(ins.Off)
			}
		case OpCall:
			regs[0] = helpers[ins.Imm]([5]int64{regs[1], regs[2], regs[3], regs[4], regs[5]})
		case OpExit:
			return regs[0], nil
		}
	}
	// Unreachable for verified programs (final instruction is OpExit).
	return 0, &RunError{PC: len(p), Reason: "fell off program end"}
}
