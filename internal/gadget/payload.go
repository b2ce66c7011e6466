package gadget

import (
	"encoding/binary"
	"fmt"

	"vcfr/internal/isa"
)

// This file is the auto-roper: ROPgadget's payload compiler. Given a gadget
// pool, it assembles concrete return-oriented chains from templates. The
// chains are real: fed to a vulnerable program running on the simulator,
// they execute (see examples/ropdefense and the integration tests).

// Role classifies what a chain-builder needs a gadget to do.
type Role int

// Gadget roles.
const (
	// RolePopReg: "pop rX ; ... ; ret" — load a constant from the stack into
	// a specific register.
	RolePopReg Role = iota + 1
	// RoleSyscall: "sys N ; ... ; ret" — invoke a specific syscall.
	RoleSyscall
	// RoleStore: "store [rA+k], rB ; ... ; ret" — write-what-where.
	RoleStore
	// RoleArith: register arithmetic ending in ret.
	RoleArith
)

// FindPopReg returns a gadget whose first instruction pops into reg and
// whose body performs no other stack pops (so the chain layout stays
// simple), ending in ret.
func FindPopReg(gs []Gadget, reg isa.Reg) (Gadget, bool) {
	for _, g := range gs {
		if g.End.Op != isa.OpRet || len(g.Insts) == 0 {
			continue
		}
		if g.Insts[0].Op != isa.OpPop || g.Insts[0].Rd != reg {
			continue
		}
		clean := true
		for _, in := range g.Insts[1:] {
			if touchesStack(in) || clobbers(in, reg) {
				clean = false
				break
			}
		}
		if clean {
			return g, true
		}
	}
	return Gadget{}, false
}

// FindSyscall returns a "sys num" gadget ending in ret whose body does not
// touch the stack.
func FindSyscall(gs []Gadget, num int32) (Gadget, bool) {
	for _, g := range gs {
		if g.End.Op != isa.OpRet {
			continue
		}
		sawSys := false
		clean := true
		for _, in := range g.Insts {
			switch {
			case in.Op == isa.OpSys && in.Imm == num:
				sawSys = true
			case touchesStack(in):
				clean = false
			}
		}
		if sawSys && clean {
			return g, true
		}
	}
	return Gadget{}, false
}

func touchesStack(in isa.Inst) bool {
	switch in.Op {
	case isa.OpPush, isa.OpPop:
		return true
	case isa.OpLoad, isa.OpStore, isa.OpLoadB, isa.OpStoreB:
		return in.Rs == isa.RegSP || in.Rd == isa.RegSP
	default:
		return writesReg(in) && in.Rd == isa.RegSP
	}
}

func clobbers(in isa.Inst, reg isa.Reg) bool {
	return writesReg(in) && in.Rd == reg
}

func writesReg(in isa.Inst) bool {
	switch in.Op {
	case isa.OpMovRR, isa.OpMovRI, isa.OpAdd, isa.OpSub, isa.OpAnd, isa.OpOr,
		isa.OpXor, isa.OpShl, isa.OpShr, isa.OpSar, isa.OpMul, isa.OpDiv,
		isa.OpMod, isa.OpNeg, isa.OpNot, isa.OpAddI, isa.OpSubI, isa.OpAndI,
		isa.OpOrI, isa.OpXorI, isa.OpShlI, isa.OpShrI, isa.OpSarI,
		isa.OpLoad, isa.OpLoadB, isa.OpLoadR, isa.OpLea, isa.OpPop:
		return true
	default:
		return false
	}
}

// Chain is an assembled ROP payload: the 32-bit words laid over the stack
// starting at the overwritten return-address slot.
type Chain struct {
	Words   []uint32
	Gadgets []Gadget // the distinct gadgets the chain uses
}

// Bytes serializes the chain little-endian, ready to be injected.
func (c Chain) Bytes() []byte {
	out := make([]byte, 4*len(c.Words))
	for i, w := range c.Words {
		binary.LittleEndian.PutUint32(out[4*i:], w)
	}
	return out
}

// BuildPrintChain assembles the classic proof-of-control payload: print each
// byte of msg via the SysPutChar syscall, then exit. It needs a
// "pop r1 ; ret" gadget and a "sys 1 ; ret" gadget; the exit uses a
// "sys 0 ; ret" or "sys 0" - terminated gadget if present, else the chain
// ends by re-entering the putchar gadget with a halt... it simply requires a
// sys-0 gadget and fails otherwise (the pool decides, as with ROPgadget).
func BuildPrintChain(gs []Gadget, msg string) (Chain, error) {
	popR1, ok := FindPopReg(gs, 1)
	if !ok {
		return Chain{}, fmt.Errorf("gadget: no 'pop r1 ; ret' gadget in pool of %d", len(gs))
	}
	putc, ok := FindSyscall(gs, isa.SysPutChar)
	if !ok {
		return Chain{}, fmt.Errorf("gadget: no 'sys 1 ; ret' gadget in pool of %d", len(gs))
	}
	exit, ok := FindSyscall(gs, isa.SysExit)
	if !ok {
		return Chain{}, fmt.Errorf("gadget: no 'sys 0 ; ret' gadget in pool of %d", len(gs))
	}
	var c Chain
	c.Gadgets = []Gadget{popR1, putc, exit}
	for _, ch := range []byte(msg) {
		// ret -> pop r1 (value = ch) -> ret -> sys 1 -> ret -> ...
		c.Words = append(c.Words, popR1.Addr, uint32(ch), putc.Addr)
	}
	// r1 = 0; exit.
	c.Words = append(c.Words, popR1.Addr, 0, exit.Addr)
	return c, nil
}

// BuildWriteChain assembles a write-what-where payload: store value at addr
// using pop gadgets to set up the address and value registers, then exit.
// Like ROPgadget's compiler, it tries every store gadget in the pool until
// one has the supporting pop gadgets it needs.
func BuildWriteChain(gs []Gadget, addr, value uint32) (Chain, error) {
	exit, ok := FindSyscall(gs, isa.SysExit)
	if !ok {
		return Chain{}, fmt.Errorf("gadget: no exit gadget in pool of %d", len(gs))
	}
	for _, st := range gs {
		if st.End.Op != isa.OpRet {
			continue
		}
		var storeInst isa.Inst
		for _, in := range st.Insts {
			if in.Op == isa.OpStore || in.Op == isa.OpStoreR {
				storeInst = in
				break
			}
		}
		if storeInst.Op == 0 {
			continue
		}
		popAddr, okA := FindPopReg(gs, storeInst.Rd)
		popVal, okV := FindPopReg(gs, storeInst.Rs)
		if !okA || !okV {
			continue
		}
		var c Chain
		if storeInst.Op == isa.OpStoreR {
			popIx, okI := FindPopReg(gs, storeInst.Rt)
			if !okI {
				continue
			}
			c.Words = []uint32{popAddr.Addr, addr, popVal.Addr, value,
				popIx.Addr, 0, st.Addr, exit.Addr}
			c.Gadgets = []Gadget{popAddr, popVal, popIx, st, exit}
			return c, nil
		}
		base := addr - uint32(storeInst.Imm)
		c.Words = []uint32{popAddr.Addr, base, popVal.Addr, value, st.Addr, exit.Addr}
		c.Gadgets = []Gadget{popAddr, popVal, st, exit}
		return c, nil
	}
	return Chain{}, fmt.Errorf("gadget: no workable store gadget combination in pool of %d", len(gs))
}

// TryAllTemplates reports which payload templates can be assembled from the
// pool — the Sec. V-B experiment ("for all the benchmark applications, no
// attack payloads can be generated" after randomization).
func TryAllTemplates(gs []Gadget) map[string]bool {
	out := make(map[string]bool, 3)
	_, errPrint := BuildPrintChain(gs, "x")
	out["print-and-exit"] = errPrint == nil
	_, errWrite := BuildWriteChain(gs, 0x80000, 1)
	out["write-what-where"] = errWrite == nil
	_, errExfil := BuildExfilChain(gs, 0x80000, 1)
	out["exfiltrate"] = errExfil == nil
	return out
}

// FindLoadTo returns a gadget that loads memory through a pop-settable
// address register into a specific destination register, ending in ret.
func FindLoadTo(gs []Gadget, dst isa.Reg) (Gadget, isa.Reg, bool) {
	for _, g := range gs {
		if g.End.Op != isa.OpRet {
			continue
		}
		for _, in := range g.Insts {
			if in.Op == isa.OpLoad && in.Rd == dst && in.Imm == 0 {
				return g, in.Rs, true
			}
		}
	}
	return Gadget{}, 0, false
}

// BuildExfilChain assembles a data-exfiltration payload: for each of n bytes
// starting at addr, load the word through a load gadget into r1 and emit its
// low byte with a putchar gadget; then exit. This is the confidentiality
// attack — ROP used to leak secrets rather than spawn a shell.
func BuildExfilChain(gs []Gadget, addr uint32, n int) (Chain, error) {
	loadG, addrReg, ok := FindLoadTo(gs, 1)
	if !ok {
		return Chain{}, fmt.Errorf("gadget: no 'load r1, [rX] ; ret' gadget in pool of %d", len(gs))
	}
	popAddr, ok := FindPopReg(gs, addrReg)
	if !ok {
		return Chain{}, fmt.Errorf("gadget: no 'pop %s ; ret' gadget", addrReg)
	}
	putc, ok := FindSyscall(gs, isa.SysPutChar)
	if !ok {
		return Chain{}, fmt.Errorf("gadget: no 'sys 1 ; ret' gadget")
	}
	exit, ok := FindSyscall(gs, isa.SysExit)
	if !ok {
		return Chain{}, fmt.Errorf("gadget: no exit gadget")
	}
	popR1, ok := FindPopReg(gs, 1)
	if !ok {
		return Chain{}, fmt.Errorf("gadget: no 'pop r1 ; ret' gadget")
	}
	var c Chain
	c.Gadgets = []Gadget{popAddr, loadG, putc, popR1, exit}
	for i := 0; i < n; i++ {
		c.Words = append(c.Words, popAddr.Addr, addr+uint32(i), loadG.Addr, putc.Addr)
	}
	c.Words = append(c.Words, popR1.Addr, 0, exit.Addr)
	return c, nil
}
