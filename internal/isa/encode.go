package isa

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// Encoding layout, by opcode family:
//
//	1-byte:  [op]                          nop, halt, ret
//	2-byte:  [op][imm8]                    sys
//	2-byte:  [op][rd<<4|rs]                reg-reg ALU, mov, cmp, test
//	2-byte:  [op][rd]                      neg, not, push, pop, jmpr, callr
//	3-byte:  [op][rd][imm8]                shift-immediate
//	3-byte:  [op][rd<<4|rs][rt]            loadr, storer
//	4-byte:  [op][rd][imm16le]             reg-imm ALU, cmpi
//	4-byte:  [op][rd<<4|rs][off16le]       load, store, loadb, storeb, lea
//	5-byte:  [op][abs32le]                 jmp, jcc, call
//	6-byte:  [op][rd][imm32le]             movi
//
// All multi-byte immediates are little-endian. imm16/off16 are sign-extended
// on decode; imm8 for sys and shifts is zero-extended.

// Decode errors.
var (
	ErrBadOpcode  = errors.New("isa: invalid opcode byte")
	ErrTruncated  = errors.New("isa: truncated instruction")
	ErrBadOperand = errors.New("isa: invalid operand encoding")
)

// Encode appends the encoding of in to dst and returns the extended slice.
// It panics if the instruction is malformed (invalid opcode or register);
// instructions are produced by the assembler and workload generators, which
// validate first.
func Encode(dst []byte, in Inst) []byte {
	op := in.Op
	if !op.Valid() {
		panic(fmt.Sprintf("isa: Encode of invalid opcode %#02x", uint8(op)))
	}
	checkReg := func(r Reg) {
		if !r.Valid() {
			panic(fmt.Sprintf("isa: Encode %s with invalid register %d", op, r))
		}
	}
	switch op {
	case OpNop, OpHalt, OpRet:
		return append(dst, byte(op))
	case OpSys:
		return append(dst, byte(op), byte(in.Imm))
	case OpMovRR, OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpSar,
		OpMul, OpDiv, OpMod, OpCmp, OpTest:
		checkReg(in.Rd)
		checkReg(in.Rs)
		return append(dst, byte(op), byte(in.Rd)<<4|byte(in.Rs))
	case OpNeg, OpNot, OpPush, OpPop, OpJmpR, OpCallR:
		checkReg(in.Rd)
		return append(dst, byte(op), byte(in.Rd))
	case OpShlI, OpShrI, OpSarI:
		checkReg(in.Rd)
		return append(dst, byte(op), byte(in.Rd), byte(in.Imm))
	case OpLoadR, OpStoreR:
		checkReg(in.Rd)
		checkReg(in.Rs)
		checkReg(in.Rt)
		return append(dst, byte(op), byte(in.Rd)<<4|byte(in.Rs), byte(in.Rt))
	case OpAddI, OpSubI, OpAndI, OpOrI, OpXorI, OpCmpI:
		checkReg(in.Rd)
		dst = append(dst, byte(op), byte(in.Rd))
		return binary.LittleEndian.AppendUint16(dst, uint16(in.Imm))
	case OpLoad, OpStore, OpLoadB, OpStoreB, OpLea:
		checkReg(in.Rd)
		checkReg(in.Rs)
		dst = append(dst, byte(op), byte(in.Rd)<<4|byte(in.Rs))
		return binary.LittleEndian.AppendUint16(dst, uint16(in.Imm))
	case OpJmp, OpJe, OpJne, OpJl, OpJge, OpJg, OpJle, OpJb, OpJae, OpCall:
		dst = append(dst, byte(op))
		return binary.LittleEndian.AppendUint32(dst, in.Target)
	case OpMovRI:
		checkReg(in.Rd)
		dst = append(dst, byte(op), byte(in.Rd))
		return binary.LittleEndian.AppendUint32(dst, uint32(in.Imm))
	default:
		panic(fmt.Sprintf("isa: Encode: unhandled opcode %s", op))
	}
}

// DecodeError is the error Decode returns for a byte sequence that does not
// encode an instruction. It keeps the raw fields and formats its message
// only when Error is called: the gadget scanner probes every byte offset of
// mostly zero-filled views and discards almost every rejection unread.
// errors.Is matches it against ErrBadOpcode, ErrTruncated or ErrBadOperand.
type DecodeError struct {
	Err  error  // ErrBadOpcode, ErrTruncated or ErrBadOperand
	Op   Op     // offending opcode; invalid for ErrBadOpcode
	Byte byte   // the rejected opcode or register byte
	Addr uint32 // address the decode was attempted at
	// Need and Have are the encoded length and the bytes available
	// (ErrTruncated only).
	Need, Have int
	// Index marks a rejected loadr/storer index register (ErrBadOperand).
	Index bool
}

// Error renders the rejection in the decoder's historical message format.
func (e *DecodeError) Error() string {
	switch {
	case e.Err == ErrBadOpcode:
		return fmt.Sprintf("%v: %#02x at %#x", e.Err, e.Byte, e.Addr)
	case e.Err == ErrTruncated:
		return fmt.Sprintf("%v: %s at %#x needs %d bytes, have %d",
			e.Err, e.Op, e.Addr, e.Need, e.Have)
	case e.Index:
		return fmt.Sprintf("%v: %s index reg %d at %#x", e.Err, e.Op, e.Byte, e.Addr)
	default:
		return fmt.Sprintf("%v: %s reg %d at %#x", e.Err, e.Op, e.Byte, e.Addr)
	}
}

// Unwrap returns the sentinel the rejection belongs to.
func (e *DecodeError) Unwrap() error { return e.Err }

// Decode decodes one instruction from buf, recording addr as its address.
// Register-field validation is strict: a high nibble in a single-register
// encoding fails, so a random byte stream usually fails to decode — exactly
// the property the gadget scanner relies on when it probes misaligned
// offsets. An empty buf returns ErrTruncated itself; every other rejection
// is a *DecodeError.
func Decode(buf []byte, addr uint32) (Inst, error) {
	if len(buf) == 0 {
		return Inst{}, ErrTruncated
	}
	op := Op(buf[0])
	if !op.Valid() {
		return Inst{}, &DecodeError{Err: ErrBadOpcode, Byte: buf[0], Addr: addr}
	}
	n := op.Length()
	if len(buf) < n {
		return Inst{}, &DecodeError{Err: ErrTruncated, Op: op, Addr: addr, Need: n, Have: len(buf)}
	}
	if rb := regOperand[op]; rb != 0 && buf[rb] >= NumRegs {
		return Inst{}, &DecodeError{Err: ErrBadOperand, Op: op, Byte: buf[rb], Addr: addr, Index: rb == 2}
	}
	in := Inst{Op: op, Addr: addr}
	switch op {
	case OpNop, OpHalt, OpRet:
		// no operands
	case OpSys:
		in.Imm = int32(buf[1])
	case OpMovRR, OpAdd, OpSub, OpAnd, OpOr, OpXor, OpShl, OpShr, OpSar,
		OpMul, OpDiv, OpMod, OpCmp, OpTest:
		in.Rd, in.Rs = Reg(buf[1]>>4), Reg(buf[1]&0x0f)
	case OpNeg, OpNot, OpPush, OpPop, OpJmpR, OpCallR:
		in.Rd = Reg(buf[1])
	case OpShlI, OpShrI, OpSarI:
		in.Rd = Reg(buf[1])
		in.Imm = int32(buf[2])
	case OpLoadR, OpStoreR:
		in.Rd, in.Rs = Reg(buf[1]>>4), Reg(buf[1]&0x0f)
		in.Rt = Reg(buf[2])
	case OpAddI, OpSubI, OpAndI, OpOrI, OpXorI, OpCmpI:
		in.Rd = Reg(buf[1])
		in.Imm = int32(int16(binary.LittleEndian.Uint16(buf[2:])))
	case OpLoad, OpStore, OpLoadB, OpStoreB, OpLea:
		in.Rd, in.Rs = Reg(buf[1]>>4), Reg(buf[1]&0x0f)
		in.Imm = int32(int16(binary.LittleEndian.Uint16(buf[2:])))
	case OpJmp, OpJe, OpJne, OpJl, OpJge, OpJg, OpJle, OpJb, OpJae, OpCall:
		in.Target = binary.LittleEndian.Uint32(buf[1:])
	case OpMovRI:
		in.Rd = Reg(buf[1])
		in.Imm = int32(binary.LittleEndian.Uint32(buf[2:]))
	default:
		return Inst{}, &DecodeError{Err: ErrBadOpcode, Byte: buf[0], Addr: addr}
	}
	return in, nil
}

// regOperand names, per opcode, the encoding byte that must hold a register
// number, or 0 for none: Decode rejects any other value there, so a random
// byte stream rarely decodes. Two-register encodings pack both registers
// into one byte and cannot be rejected this way.
var regOperand = [numOps]uint8{
	OpNeg: 1, OpNot: 1, OpPush: 1, OpPop: 1, OpJmpR: 1, OpCallR: 1,
	OpShlI: 1, OpShrI: 1, OpSarI: 1,
	OpAddI: 1, OpSubI: 1, OpAndI: 1, OpOrI: 1, OpXorI: 1, OpCmpI: 1,
	OpMovRI: 1,
	OpLoadR: 2, OpStoreR: 2, // the index register
}

// TryDecode is Decode without the rejection detail: it reports only whether
// buf starts with a valid encoding, and a rejection never allocates. The
// gadget scanner probes every byte offset with it and discards the
// rejections.
func TryDecode(buf []byte, addr uint32) (Inst, bool) {
	if len(buf) == 0 {
		return Inst{}, false
	}
	op := Op(buf[0])
	if !op.Valid() || len(buf) < op.Length() {
		return Inst{}, false
	}
	if rb := regOperand[op]; rb != 0 && buf[rb] >= NumRegs {
		return Inst{}, false
	}
	in, err := Decode(buf, addr)
	return in, err == nil
}

// PatchTarget overwrites the 32-bit target field of the direct-transfer
// instruction encoded at code[off:]. It is the primitive the ILR rewriter
// uses to relocate direct control transfers.
func PatchTarget(code []byte, off int, target uint32) error {
	if off < 0 || off >= len(code) {
		return fmt.Errorf("isa: PatchTarget offset %d out of range", off)
	}
	op := Op(code[off])
	if !op.HasTarget() {
		return fmt.Errorf("isa: PatchTarget at %d: %s has no target field", off, op)
	}
	if off+op.Length() > len(code) {
		return fmt.Errorf("%w: PatchTarget at %d", ErrTruncated, off)
	}
	binary.LittleEndian.PutUint32(code[off+TargetFieldOffset:], target)
	return nil
}
