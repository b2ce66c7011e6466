// The lifter: RV64 machine code → a VX program.Image that flows through the
// unchanged cfg → ilr → cpu stack.
//
// The lift is structural, not emulative. RISC-V control flow is rebuilt from
// idioms so that VCFR's protected channels survive translation:
//
//   - jal ra, f        → call f         (return address lives on the VX
//   - jalr x0, 0(ra)   → ret             stack, where ILR randomizes it;
//     the ra register dataflow becomes a
//     dead shadow)
//   - jal x0, l        → jmp l
//   - jalr ra, 0(rs)   → callr m(rs)
//   - jalr x0, 0(rs)   → jmpr m(rs)
//   - auipc rd + addi  → movi m(rd), addr   ("la": a relocated code
//     constant when grounded)
//   - auipc rd + jalr  → call/jmp addr      (far-call relaxation)
//   - auipc x0         → nop                (landing pad, see below)
//
// CFG-recovery hardening (per the CET-guided-disassembly approach): function
// symbols and `auipc x0` landing pads — the RV64 analog of Zicfilp's lpad /
// x86 ENDBR — are ground-truth indirect targets. Every landing pad's lifted
// address is emitted into a relocated `targets` table, so the ILR rewriter
// can retarget them; code pointers the lift cannot ground stay at their
// original addresses via the existing scan-only failover. Anything the
// lifter cannot translate soundly is *refused* with a per-function
// diagnostic — never silently mis-lifted.
//
// Subset contract (checked, not assumed): RV64I+M base encodings only, ≤ 12
// live general registers (x0 and sp excluded), 32-bit value semantics (the
// VX machine is 32-bit; ld/sd move the low word of 8-byte slots), shift
// amounts < 32, signed divide/remainder, ecall with a statically resolved
// a7. Violations surface as DecodeError or RefuseError.
package realbin

import (
	"fmt"
	"sort"

	"vcfr/internal/cfg"
	"vcfr/internal/isa"
	"vcfr/internal/program"
)

// VX register assignment for lifted code.
//
// r0/r1 are reserved: the VX syscall contract reads r1 and writes r0
// architecturally, and multi-instruction lowerings need a scratch register
// that no RV value can live in. r12 is the pinned zero (x0): the entry shim
// zeroes it and no lowering ever writes it. sp maps to sp. Everything else
// comes from the 12-slot pool, assigned to the binary's used registers in
// ascending RV number order — deterministic, so lifted images are
// byte-stable.
const (
	vxScratch = isa.Reg(0)
	vxSysReg  = isa.Reg(1)
	vxZero    = isa.Reg(12)
)

var vxPool = []isa.Reg{2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 13, 14}

// Lifted addresses must stay below the VX stack region (DefaultStackTop
// 0x0fff_fff0 grows down) and far below ilr.DefaultRandBase (0x4000_0000).
const liftAddrCeiling = 0x0e00_0000

// vcfr runtime ecall numbers (see fixtures/src/vcfr_rt.h). 93 is the
// standard RISC-V Linux exit; the I/O calls use private numbers small
// enough for `li a7, n` to stay a single addi.
const (
	rvSysExit     = 93
	rvSysPutChar  = 1001
	rvSysGetChar  = 1002
	rvSysWriteInt = 1003
)

// Refusal is one precise reason a binary could not be lifted soundly.
type Refusal struct {
	Addr   uint64 // RV virtual address
	Func   string // enclosing function symbol, if known
	Reason string
}

func (r Refusal) String() string {
	where := fmt.Sprintf("%#x", r.Addr)
	if r.Func != "" {
		where = fmt.Sprintf("%s (in %s)", where, r.Func)
	}
	return fmt.Sprintf("%s: %s", where, r.Reason)
}

// RefuseError reports every site that blocked the lift. Refusing with a
// complete diagnostic list is a first-class outcome: the rewriter must
// never run over code it might have mis-lifted.
type RefuseError struct {
	Name     string
	Refusals []Refusal
}

func (e *RefuseError) Error() string {
	msg := fmt.Sprintf("realbin: refusing to lift %q: %d unsound site(s)", e.Name, len(e.Refusals))
	max := len(e.Refusals)
	if max > 8 {
		max = 8
	}
	for _, r := range e.Refusals[:max] {
		msg += "\n  " + r.String()
	}
	if max < len(e.Refusals) {
		msg += fmt.Sprintf("\n  ... and %d more", len(e.Refusals)-max)
	}
	return msg
}

// Funcs returns the distinct refused function names (unknown sites count as
// one pseudo-function "?").
func (e *RefuseError) Funcs() []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range e.Refusals {
		name := r.Func
		if name == "" {
			name = "?"
		}
		if !seen[name] {
			seen[name] = true
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// Report summarizes a successful lift.
type Report struct {
	Instructions   int  // RV instructions lifted (padding and pair-tails excluded)
	VXInstructions int  // VX instructions emitted
	TextBytes      int  // lifted text size
	LandingPads    int  // auipc-x0 ground-truth targets
	GroundedPtrs   int  // code pointers rewritten with relocations
	ScanOnlyPtrs   int  // code pointers rewritten without grounding (failover)
	Blocks         int  // basic blocks cfg recovers over the lifted text
	RegsMapped     int  // RV registers assigned VX pool slots
	Relocated      bool // lifted text could not keep the original base address
}

// Lifted is the product of a successful lift.
type Lifted struct {
	Img    *program.Image
	Report Report
}

// Load parses and lifts an ELF64 RV64 executable in one step.
func Load(data []byte, name string) (*Lifted, error) {
	f, err := ParseELF(data)
	if err != nil {
		return nil, err
	}
	return Lift(f, name)
}

// liftedInst is one emitted VX instruction plus the symbolic fixups the
// second pass resolves once lifted addresses are known.
type liftedInst struct {
	vx          isa.Inst
	rvTarget    uint64 // direct-transfer target, RV address space
	hasRVTarget bool
	skipLocal   bool   // jcc to the end of this lowering (slt/sltu sequences)
	moviRV      uint64 // movi of this RV text address (remap, maybe relocate)
	hasMoviRV   bool
}

// rvSlot is one 4-byte text word and its lowering.
type rvSlot struct {
	inst     RVInst
	pad      bool // zero word (inter-function padding)
	paired   bool // first half of an auipc pair pairAUIPC accepted
	consumed bool // second half of an auipc pair
	ops      []liftedInst
	size     int
	vxAddr   uint32
}

type lifter struct {
	f        *ELFFile
	name     string
	text     *ELFSegment
	slots    []rvSlot
	idxAt    map[uint64]int // RV address → slot index
	regMap   map[RVReg]isa.Reg
	lpadAt   map[uint64]bool // landing-pad RV addresses
	funcAt   map[uint64]bool // function-symbol RV addresses
	funcList []ELFSymbol     // func symbols sorted by value
	targets  map[uint64]bool // static branch/jump targets
	dataPtrs []dataPtr       // data words holding text addresses
	refusals []Refusal
	report   Report
}

// Lift translates a parsed RV64 ELF into a VX image. On refusal it returns
// a *RefuseError listing every unsound site.
func Lift(f *ELFFile, name string) (*Lifted, error) {
	if f.Machine != elfMachRISCV {
		return nil, parseErr("machine", "%d, want EM_RISCV (%d)", f.Machine, elfMachRISCV)
	}
	l := &lifter{
		f:      f,
		name:   name,
		text:   f.Text(),
		idxAt:  make(map[uint64]int),
		lpadAt: make(map[uint64]bool),
		funcAt: make(map[uint64]bool),
	}
	for _, s := range f.Symbols {
		if s.Func && s.Value >= l.text.Vaddr && s.Value < l.text.End() {
			l.funcAt[s.Value] = true
			l.funcList = append(l.funcList, s)
		}
	}
	sort.Slice(l.funcList, func(i, j int) bool { return l.funcList[i].Value < l.funcList[j].Value })

	if err := l.decode(); err != nil {
		return nil, err
	}
	l.scanTargets()
	l.pairAUIPC()
	if err := l.mapRegisters(); err != nil {
		return nil, err
	}
	l.lowerAll()
	if len(l.refusals) > 0 {
		err := &RefuseError{Name: name, Refusals: l.refusals}
		totals.noteRefusal(len(err.Funcs()))
		return nil, err
	}
	img, err := l.emit()
	if err != nil {
		return nil, err
	}
	// The lifted image must survive the stack it feeds: structural
	// validation plus a full disassembly + CFG build. A failure here is a
	// lifter bug surfaced before any simulation trusts the image.
	if err := img.Validate(); err != nil {
		return nil, fmt.Errorf("realbin: lifted image invalid: %w", err)
	}
	g, err := cfg.Build(img)
	if err != nil {
		return nil, fmt.Errorf("realbin: lifted image fails CFG recovery: %w", err)
	}
	l.report.Blocks = len(g.Blocks)
	l.report.RegsMapped = len(l.regMap)
	totals.noteLift(l.report)
	return &Lifted{Img: img, Report: l.report}, nil
}

// funcName returns the function symbol covering addr, for diagnostics.
func (l *lifter) funcName(addr uint64) string {
	i := sort.Search(len(l.funcList), func(i int) bool { return l.funcList[i].Value > addr })
	if i == 0 {
		return ""
	}
	return l.funcList[i-1].Name
}

func (l *lifter) refuse(addr uint64, format string, args ...any) {
	l.refusals = append(l.refusals, Refusal{
		Addr:   addr,
		Func:   l.funcName(addr),
		Reason: fmt.Sprintf(format, args...),
	})
}

// decode splits text into 4-byte words. All-zero words are inter-function
// padding (the VX convention: padding never decodes). Undecodable non-zero
// words become refusals, not decode aborts, so one diagnostic pass reports
// every bad site.
func (l *lifter) decode() error {
	data := l.text.Data
	n := len(data) / 4
	if tail := len(data) % 4; tail != 0 {
		for _, b := range data[n*4:] {
			if b != 0 {
				return parseErr("text", "size %#x not a multiple of 4 with non-zero tail", len(data))
			}
		}
	}
	l.slots = make([]rvSlot, n)
	for i := 0; i < n; i++ {
		addr := l.text.Vaddr + uint64(i*4)
		l.idxAt[addr] = i
		w := uint32(data[i*4]) | uint32(data[i*4+1])<<8 | uint32(data[i*4+2])<<16 | uint32(data[i*4+3])<<24
		if w == 0 {
			l.slots[i].pad = true
			continue
		}
		in, err := DecodeRV64(w, addr)
		if err != nil {
			l.refuse(addr, "%v", err)
			l.slots[i].pad = true // keep indexing; the refusal blocks emission
			continue
		}
		l.slots[i].inst = in
	}
	return nil
}

// scanTargets records every static branch/jump destination. A destination
// must land on a decoded instruction start; landing in padding or mid-pair
// refuses the lift.
func (l *lifter) scanTargets() {
	l.targets = make(map[uint64]bool)
	for i := range l.slots {
		s := &l.slots[i]
		if s.pad {
			continue
		}
		switch s.inst.Op {
		case rvJAL, rvBEQ, rvBNE, rvBLT, rvBGE, rvBLTU, rvBGEU:
			l.targets[uint64(int64(s.inst.Addr)+s.inst.Imm)] = true
		}
	}
}

// pairAUIPC fuses the two-instruction pc-relative idioms. An auipc the
// lifter cannot pair is refused: a live "pc + offset" value has no sound
// meaning once instructions move.
func (l *lifter) pairAUIPC() {
	for i := range l.slots {
		s := &l.slots[i]
		if s.pad || s.consumed || s.inst.Op != rvAUIPC {
			continue
		}
		if s.inst.Rd == rvZero {
			// Landing pad (Zicfilp lpad analog): a ground-truth indirect
			// target, lifted to a nop whose address lands in the relocated
			// targets table.
			l.lpadAt[s.inst.Addr] = true
			continue
		}
		if i+1 >= len(l.slots) || l.slots[i+1].pad || l.slots[i+1].consumed {
			l.refuse(s.inst.Addr, "auipc %s with no pairable successor", s.inst.Rd)
			continue
		}
		next := &l.slots[i+1]
		ok := false
		switch {
		case next.inst.Op == rvADDI && next.inst.Rd == s.inst.Rd && next.inst.Rs1 == s.inst.Rd:
			ok = true // la rd, sym
		case next.inst.Op == rvJALR && next.inst.Rs1 == s.inst.Rd &&
			(next.inst.Rd == rvRA || next.inst.Rd == rvZero):
			ok = true // call/tail relaxation
		}
		if !ok {
			l.refuse(s.inst.Addr, "auipc %s followed by %s: unsupported pc-relative idiom",
				s.inst.Rd, next.inst)
			continue
		}
		if l.targets[next.inst.Addr] {
			l.refuse(next.inst.Addr, "branch target splits an auipc pair")
			continue
		}
		s.paired = true
		next.consumed = true
	}
}

// mapRegisters assigns VX pool registers to the RV registers the binary
// actually uses, in ascending RV order.
func (l *lifter) mapRegisters() error {
	used := map[RVReg]bool{}
	note := func(r RVReg) {
		if r != rvZero && r != rvSP {
			used[r] = true
		}
	}
	for i := range l.slots {
		s := &l.slots[i]
		if s.pad {
			continue
		}
		in := s.inst
		switch in.Op {
		case rvLUI, rvAUIPC:
			note(in.Rd)
		case rvJAL, rvJALR:
			// Return addresses live on the VX stack; ra itself is only a
			// shadow, but code that saves/restores it still reads the
			// register, so count it when named.
			note(in.Rd)
			if in.Op == rvJALR {
				note(in.Rs1)
			}
		case rvBEQ, rvBNE, rvBLT, rvBGE, rvBLTU, rvBGEU:
			note(in.Rs1)
			note(in.Rs2)
		case rvLB, rvLBU, rvLW, rvLWU, rvLD:
			note(in.Rd)
			note(in.Rs1)
		case rvSB, rvSW, rvSD:
			note(in.Rs1)
			note(in.Rs2)
		case rvADDI, rvSLTI, rvSLTIU, rvXORI, rvORI, rvANDI, rvSLLI, rvSRLI, rvSRAI:
			note(in.Rd)
			note(in.Rs1)
		case rvADD, rvSUB, rvSLL, rvSLT, rvSLTU, rvXOR, rvSRL, rvSRA, rvOR, rvAND,
			rvMUL, rvDIV, rvREM:
			note(in.Rd)
			note(in.Rs1)
			note(in.Rs2)
		case rvECALL:
			note(rvA0)
			note(rvA7)
		}
	}
	var order []RVReg
	for r := range used {
		order = append(order, r)
	}
	sort.Slice(order, func(i, j int) bool { return order[i] < order[j] })
	if len(order) > len(vxPool) {
		return &RefuseError{Name: l.name, Refusals: []Refusal{{
			Addr: l.f.Entry,
			Func: l.funcName(l.f.Entry),
			Reason: fmt.Sprintf("uses %d general registers; the VX lift supports at most %d (plus zero and sp)",
				len(order), len(vxPool)),
		}}}
	}
	l.regMap = make(map[RVReg]isa.Reg, len(order))
	for i, r := range order {
		l.regMap[r] = vxPool[i]
	}
	return nil
}

// m maps an RV register to its VX register.
func (l *lifter) m(r RVReg) isa.Reg {
	switch r {
	case rvZero:
		return vxZero
	case rvSP:
		return isa.RegSP
	default:
		vx, ok := l.regMap[r]
		if !ok {
			panic(fmt.Sprintf("realbin: register %s escaped the usage scan", r))
		}
		return vx
	}
}
