package asm

import (
	"strings"

	"vcfr/internal/isa"
)

// mnemonics maps assembler mnemonics to opcodes. Operand shapes are derived
// from the opcode family in parseInst.
var mnemonics = map[string]isa.Op{
	"nop": isa.OpNop, "halt": isa.OpHalt, "ret": isa.OpRet, "sys": isa.OpSys,
	"mov": isa.OpMovRR, "movi": isa.OpMovRI,
	"add": isa.OpAdd, "sub": isa.OpSub, "and": isa.OpAnd, "or": isa.OpOr,
	"xor": isa.OpXor, "shl": isa.OpShl, "shr": isa.OpShr, "sar": isa.OpSar,
	"mul": isa.OpMul, "div": isa.OpDiv, "mod": isa.OpMod,
	"neg": isa.OpNeg, "not": isa.OpNot,
	"addi": isa.OpAddI, "subi": isa.OpSubI, "andi": isa.OpAndI,
	"ori": isa.OpOrI, "xori": isa.OpXorI,
	"shli": isa.OpShlI, "shri": isa.OpShrI, "sari": isa.OpSarI,
	"cmp": isa.OpCmp, "cmpi": isa.OpCmpI, "test": isa.OpTest,
	"load": isa.OpLoad, "store": isa.OpStore, "loadb": isa.OpLoadB,
	"storeb": isa.OpStoreB, "lea": isa.OpLea,
	"loadr": isa.OpLoadR, "storer": isa.OpStoreR,
	"push": isa.OpPush, "pop": isa.OpPop,
	"jmp": isa.OpJmp, "je": isa.OpJe, "jne": isa.OpJne, "jl": isa.OpJl,
	"jge": isa.OpJge, "jg": isa.OpJg, "jle": isa.OpJle, "jb": isa.OpJb,
	"jae": isa.OpJae, "call": isa.OpCall,
	"jmpr": isa.OpJmpR, "callr": isa.OpCallR,
}

var regNames = func() map[string]isa.Reg {
	m := map[string]isa.Reg{"sp": isa.RegSP, "bp": isa.RegBP}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		m[r.String()] = r
	}
	return m
}()

// memOperand is a parsed [reg], [reg±imm], or [reg+reg] operand.
type memOperand struct {
	base  isa.Reg
	index isa.Reg
	off   int32
	hasIx bool
}

func (a *assembler) parseInst(line int, s string) (item, error) {
	mnem, rest, _ := strings.Cut(s, " ")
	op, ok := mnemonics[mnem]
	if !ok {
		return item{}, a.errf(line, "unknown mnemonic %q", mnem)
	}
	ops := splitOperands(rest)
	ii := &instItem{in: isa.Inst{Op: op}}

	reg := func(i int) (isa.Reg, error) {
		r, ok := regNames[ops[i]]
		if !ok {
			return 0, a.errf(line, "%s: operand %d: %q is not a register", mnem, i+1, ops[i])
		}
		return r, nil
	}
	imm := func(i int) (int32, error) {
		v, err := parseInt(ops[i])
		if err != nil {
			return 0, a.errf(line, "%s: operand %d: bad immediate %q", mnem, i+1, ops[i])
		}
		if !fitsWord(v) {
			return 0, a.errf(line, "%s: operand %d: %q out of 32-bit range", mnem, i+1, ops[i])
		}
		return int32(v), nil
	}
	want := func(n int) error {
		if len(ops) != n {
			return a.errf(line, "%s: want %d operands, got %d", mnem, n, len(ops))
		}
		return nil
	}

	var err error
	switch op {
	case isa.OpNop, isa.OpHalt, isa.OpRet:
		err = want(0)
	case isa.OpSys:
		if err = want(1); err == nil {
			ii.in.Imm, err = imm(0)
		}
	case isa.OpMovRR, isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr, isa.OpXor,
		isa.OpShl, isa.OpShr, isa.OpSar, isa.OpMul, isa.OpDiv, isa.OpMod,
		isa.OpCmp, isa.OpTest:
		if err = want(2); err == nil {
			if ii.in.Rd, err = reg(0); err == nil {
				ii.in.Rs, err = reg(1)
			}
		}
	case isa.OpNeg, isa.OpNot, isa.OpPush, isa.OpPop, isa.OpJmpR, isa.OpCallR:
		if err = want(1); err == nil {
			ii.in.Rd, err = reg(0)
		}
	case isa.OpMovRI:
		if err = want(2); err == nil {
			if ii.in.Rd, err = reg(0); err == nil {
				if _, isReg := regNames[ops[1]]; isIdent(ops[1]) && !isReg {
					ii.immRef = ops[1]
				} else {
					ii.in.Imm, err = imm(1)
				}
			}
		}
	case isa.OpAddI, isa.OpSubI, isa.OpAndI, isa.OpOrI, isa.OpXorI,
		isa.OpShlI, isa.OpShrI, isa.OpSarI, isa.OpCmpI:
		if err = want(2); err == nil {
			if ii.in.Rd, err = reg(0); err == nil {
				ii.in.Imm, err = imm(1)
			}
		}
	case isa.OpLoad, isa.OpLoadB, isa.OpLea, isa.OpLoadR:
		if err = want(2); err != nil {
			break
		}
		var m memOperand
		if m, err = a.parseMem(line, mnem, ops[1]); err != nil {
			break
		}
		var rd isa.Reg
		if rd, err = reg(0); err != nil {
			break
		}
		if m.hasIx != (op == isa.OpLoadR) {
			// load with [reg+reg] silently becomes loadr; loadr with an
			// immediate offset is an error.
			if m.hasIx {
				ii.in.Op = isa.OpLoadR
				if op == isa.OpLea || op == isa.OpLoadB {
					err = a.errf(line, "%s does not support [reg+reg]", mnem)
					break
				}
			} else {
				err = a.errf(line, "loadr requires a [reg+reg] operand")
				break
			}
		}
		ii.in.Rd, ii.in.Rs, ii.in.Rt, ii.in.Imm = rd, m.base, m.index, m.off
	case isa.OpStore, isa.OpStoreB, isa.OpStoreR:
		if err = want(2); err != nil {
			break
		}
		var m memOperand
		if m, err = a.parseMem(line, mnem, ops[0]); err != nil {
			break
		}
		rs, ok := regNames[ops[1]]
		if !ok {
			err = a.errf(line, "%s: source %q is not a register", mnem, ops[1])
			break
		}
		if m.hasIx != (op == isa.OpStoreR) {
			if m.hasIx {
				if op == isa.OpStoreB {
					err = a.errf(line, "storeb does not support [reg+reg]")
					break
				}
				ii.in.Op = isa.OpStoreR
			} else {
				err = a.errf(line, "storer requires a [reg+reg] operand")
				break
			}
		}
		ii.in.Rd, ii.in.Rs, ii.in.Rt, ii.in.Imm = m.base, rs, m.index, m.off
	case isa.OpJmp, isa.OpJe, isa.OpJne, isa.OpJl, isa.OpJge, isa.OpJg,
		isa.OpJle, isa.OpJb, isa.OpJae, isa.OpCall:
		if err = want(1); err != nil {
			break
		}
		if isIdent(ops[0]) {
			ii.targetRef = ops[0]
		} else {
			var v int32
			if v, err = imm(0); err == nil {
				ii.in.Target = uint32(v)
			}
		}
	}
	if err != nil {
		return item{}, err
	}
	return item{line: line, inst: ii}, nil
}

func (a *assembler) parseMem(line int, mnem, s string) (memOperand, error) {
	if len(s) < 2 || s[0] != '[' || s[len(s)-1] != ']' {
		return memOperand{}, a.errf(line, "%s: expected memory operand, got %q", mnem, s)
	}
	body := strings.TrimSpace(s[1 : len(s)-1])
	// Find a +/- separator that is not the leading sign.
	sep := -1
	for i := 1; i < len(body); i++ {
		if body[i] == '+' || body[i] == '-' {
			sep = i
			break
		}
	}
	baseStr, rest := body, ""
	if sep >= 0 {
		baseStr = strings.TrimSpace(body[:sep])
		rest = strings.TrimSpace(body[sep:])
	}
	base, ok := regNames[baseStr]
	if !ok {
		return memOperand{}, a.errf(line, "%s: base %q is not a register", mnem, baseStr)
	}
	m := memOperand{base: base}
	if rest == "" {
		return m, nil
	}
	if ix, ok := regNames[strings.TrimSpace(strings.TrimPrefix(rest, "+"))]; ok {
		if strings.HasPrefix(rest, "-") {
			return memOperand{}, a.errf(line, "%s: negative index register in %q", mnem, s)
		}
		m.index, m.hasIx = ix, true
		return m, nil
	}
	v, err := parseInt(rest)
	if err != nil {
		return memOperand{}, a.errf(line, "%s: bad offset %q", mnem, rest)
	}
	if v < -32768 || v > 32767 {
		return memOperand{}, a.errf(line, "%s: offset %d out of 16-bit range", mnem, v)
	}
	m.off = int32(v)
	return m, nil
}

// splitOperands splits "r1, [sp+4]" into {"r1", "[sp+4]"} while keeping
// bracketed operands intact.
func splitOperands(s string) []string {
	s = strings.TrimSpace(s)
	if s == "" {
		return nil
	}
	var out []string
	depth := 0
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '[':
			depth++
		case ']':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, strings.TrimSpace(s[start:i]))
				start = i + 1
			}
		}
	}
	out = append(out, strings.TrimSpace(s[start:]))
	return out
}
