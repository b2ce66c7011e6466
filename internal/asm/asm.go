// Package asm implements the VX toolchain front end: a two-pass assembler
// from textual assembly to a program.Image, and a linear-sweep disassembler.
//
// The assembler stands in for the compiler+linker that produced the paper's
// SPEC binaries; the disassembler plays the role of objdump. (The recursive-
// descent "IDA Pro" role — reachability from the entry point and call
// targets — lives in package cfg, which needs the control-flow worklist
// anyway.)
//
// # Syntax
//
// One statement per line; ';' starts a comment. Labels are "name:" and may
// share a line with a statement. Directives:
//
//	.text [addr]     switch to (or create) the text section, optionally at addr
//	.data [addr]     switch to the data section
//	.entry name      declare the entry label
//	.func name       declare that label `name` starts a function (symbol table)
//	.word v, ...     emit 32-bit words; a label operand emits its address
//	.addr name, ...  emit code-address words with relocations (jump tables)
//	.space n         emit n zero bytes
//	.ascii "s"       emit the bytes of s ( \n \t \\ \" \0 escapes)
//	.align n         pad with zero bytes to an n-byte boundary
//
// The text section holds instructions and zero padding only; .word, .addr
// and .ascii belong in the data section. A .space or .align that would carry
// its section past the 32-bit address space, or past 16 MiB, is refused.
//
// Instruction operands: registers r0-r15 (aliases sp, bp), immediates
// (decimal, 0x hex, 'c' character), labels, and memory operands of the form
// [reg], [reg+imm], [reg-imm], or [reg+reg].
//
// A movi whose operand is a text-section label assembles the label's address
// and records a relocation: that is how position-dependent code constants
// (function pointers for callr, jump-table bases) stay visible to the ILR
// rewriter, mirroring the relocation information the paper recovers from
// real binaries.
package asm

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"vcfr/internal/isa"
	"vcfr/internal/program"
)

// Default section base addresses (overridable by directive operands).
const (
	DefaultTextBase = 0x0000_1000
	DefaultDataBase = 0x0010_0000
)

// SyntaxError describes an assembly failure with its source line.
type SyntaxError struct {
	Line int
	Msg  string
}

func (e *SyntaxError) Error() string {
	return fmt.Sprintf("asm: line %d: %s", e.Line, e.Msg)
}

// item is one assembled statement, sized during pass 1 and encoded in pass 2.
type item struct {
	line int
	addr uint32
	text bool // emitted into the text section

	// Exactly one of the following is active.
	inst     *instItem
	words    []wordOperand // .word / .addr
	raw      []byte        // .ascii / .space / .align padding
	isAddrTb bool          // item came from .addr: every word is a code reloc
}

// instItem is a parsed instruction whose label operands are still unresolved.
type instItem struct {
	in        isa.Inst
	targetRef string // label for jmp/jcc/call target
	immRef    string // label for movi immediate
}

// wordOperand is one operand of .word/.addr: either a constant or a label.
type wordOperand struct {
	val uint32
	ref string
}

type assembler struct {
	items  []item
	labels map[string]uint32 // name -> address (pass 1)
	inText map[string]bool   // name -> defined in text section
	funcs  map[string]bool   // names declared via .func
	entry  string

	textBase, dataBase uint32
	textSet, dataSet   bool
}

// Assemble translates VX assembly source into a validated image named name.
func Assemble(name, source string) (*program.Image, error) {
	a := &assembler{
		labels:   make(map[string]uint32),
		inText:   make(map[string]bool),
		funcs:    make(map[string]bool),
		textBase: DefaultTextBase,
		dataBase: DefaultDataBase,
	}
	if err := a.parse(source); err != nil {
		return nil, err
	}
	return a.emit(name)
}

// MustAssemble is Assemble for generated sources that are known-good by
// construction (workload generators, tests). It panics on error.
func MustAssemble(name, source string) *program.Image {
	img, err := Assemble(name, source)
	if err != nil {
		panic(err)
	}
	return img
}

func (a *assembler) errf(line int, format string, args ...any) error {
	return &SyntaxError{Line: line, Msg: fmt.Sprintf(format, args...)}
}

// parse is pass 1: split statements, compute sizes and addresses, and bind
// labels.
func (a *assembler) parse(source string) error {
	textAddr, dataAddr := a.textBase, a.dataBase
	inText := true
	addr := func() *uint32 {
		if inText {
			return &textAddr
		}
		return &dataAddr
	}

	for lineNo, rawLine := range strings.Split(source, "\n") {
		line := rawLine
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		// Peel off any leading "label:" prefixes.
		for {
			i := strings.IndexByte(line, ':')
			if i < 0 {
				break
			}
			// Ignore ':' inside a character literal or string.
			if j := strings.IndexAny(line, `"'`); j >= 0 && j < i {
				break
			}
			label := strings.TrimSpace(line[:i])
			if !isIdent(label) {
				return a.errf(lineNo+1, "invalid label %q", label)
			}
			if _, dup := a.labels[label]; dup {
				return a.errf(lineNo+1, "duplicate label %q", label)
			}
			a.labels[label] = *addr()
			a.inText[label] = inText
			line = strings.TrimSpace(line[i+1:])
		}
		if line == "" {
			continue
		}

		if strings.HasPrefix(line, ".") {
			if err := a.parseDirective(lineNo+1, line, &inText, &textAddr, &dataAddr); err != nil {
				return err
			}
			continue
		}

		if !inText {
			return a.errf(lineNo+1, "instruction %q in data section", line)
		}
		it, err := a.parseInst(lineNo+1, line)
		if err != nil {
			return err
		}
		it.addr = textAddr
		it.text = true
		textAddr += uint32(it.inst.in.Op.Length())
		a.items = append(a.items, it)
	}
	if a.entry == "" {
		if _, ok := a.labels["main"]; ok {
			a.entry = "main"
		} else {
			return a.errf(0, "no .entry directive and no main label")
		}
	}
	return nil
}

func (a *assembler) parseDirective(line int, s string, inText *bool, textAddr, dataAddr *uint32) error {
	dir, rest, _ := strings.Cut(s, " ")
	rest = strings.TrimSpace(rest)
	addr := func() *uint32 {
		if *inText {
			return textAddr
		}
		return dataAddr
	}
	if *inText && (dir == ".word" || dir == ".addr" || dir == ".ascii") {
		// Text holds instructions and zero padding only, so every byte of
		// it disassembles.
		return a.errf(line, "%s: data must live in the data section", dir)
	}
	switch dir {
	case ".text", ".data":
		toText := dir == ".text"
		if rest != "" {
			v, err := parseInt(rest)
			if err != nil || v < 0 || v > math.MaxUint32 {
				return a.errf(line, "%s: bad address %q", dir, rest)
			}
			if toText {
				if a.textSet {
					return a.errf(line, ".text base set twice")
				}
				a.textSet, *textAddr = true, uint32(v)
				a.textBase = uint32(v)
			} else {
				if a.dataSet {
					return a.errf(line, ".data base set twice")
				}
				a.dataSet, *dataAddr = true, uint32(v)
				a.dataBase = uint32(v)
			}
		}
		*inText = toText
	case ".entry":
		if !isIdent(rest) {
			return a.errf(line, ".entry: invalid name %q", rest)
		}
		a.entry = rest
	case ".func":
		if !isIdent(rest) {
			return a.errf(line, ".func: invalid name %q", rest)
		}
		a.funcs[rest] = true
	case ".word", ".addr":
		if rest == "" {
			return a.errf(line, "%s with no operands", dir)
		}
		var ops []wordOperand
		for _, f := range strings.Split(rest, ",") {
			f = strings.TrimSpace(f)
			if isIdent(f) {
				ops = append(ops, wordOperand{ref: f})
				continue
			}
			v, err := parseInt(f)
			if err != nil {
				return a.errf(line, "%s: bad operand %q", dir, f)
			}
			if !fitsWord(v) {
				return a.errf(line, "%s: operand %q out of 32-bit range", dir, f)
			}
			ops = append(ops, wordOperand{val: uint32(v)})
		}
		if dir == ".addr" {
			for _, op := range ops {
				if op.ref == "" {
					return a.errf(line, ".addr operands must be labels")
				}
			}
		}
		a.items = append(a.items, item{
			line: line, addr: *addr(), text: *inText,
			words: ops, isAddrTb: dir == ".addr",
		})
		*addr() += uint32(4 * len(ops))
	case ".space":
		n, err := parseInt(rest)
		if err != nil || n < 0 {
			return a.errf(line, ".space: bad size %q", rest)
		}
		if err := a.reserve(line, dir, *inText, *addr(), uint64(n)); err != nil {
			return err
		}
		a.items = append(a.items, item{line: line, addr: *addr(), text: *inText, raw: make([]byte, n)})
		*addr() += uint32(n)
	case ".ascii":
		b, err := parseString(rest)
		if err != nil {
			return a.errf(line, ".ascii: %v", err)
		}
		a.items = append(a.items, item{line: line, addr: *addr(), text: *inText, raw: b})
		*addr() += uint32(len(b))
	case ".align":
		n, err := parseInt(rest)
		if err != nil || n <= 0 || n&(n-1) != 0 {
			return a.errf(line, ".align: bad alignment %q", rest)
		}
		pad := (uint64(n) - uint64(*addr())%uint64(n)) % uint64(n)
		if err := a.reserve(line, dir, *inText, *addr(), pad); err != nil {
			return err
		}
		if pad > 0 {
			a.items = append(a.items, item{line: line, addr: *addr(), text: *inText, raw: make([]byte, pad)})
			*addr() += uint32(pad)
		}
	default:
		return a.errf(line, "unknown directive %q", dir)
	}
	return nil
}

// maxSection bounds the size of one section. Like the ELF loader's cap on
// its loads, it keeps a few bytes of .space or .align from demanding
// gigabytes of zeros.
const maxSection = 1 << 24

// reserve checks, before anything is allocated, that a directive dir may
// emit n bytes at addr in the text or data section: the section must end
// inside the 32-bit address space and hold at most maxSection bytes.
func (a *assembler) reserve(line int, dir string, text bool, addr uint32, n uint64) error {
	base := a.dataBase
	if text {
		base = a.textBase
	}
	end := uint64(addr) + n
	if end > math.MaxUint32 {
		return a.errf(line, "%s: %#x bytes at %#x pass the end of the 32-bit address space", dir, n, addr)
	}
	if end-uint64(base) > maxSection {
		return a.errf(line, "%s: %#x bytes at %#x grow the section past %d MiB", dir, n, addr, maxSection>>20)
	}
	return nil
}

// emit is pass 2: resolve references, encode, and build the image.
func (a *assembler) emit(name string) (*program.Image, error) {
	resolve := func(line int, ref string) (uint32, error) {
		v, ok := a.labels[ref]
		if !ok {
			return 0, a.errf(line, "undefined label %q", ref)
		}
		return v, nil
	}

	var text, data []byte
	var relocs []program.Reloc
	textAddr, dataAddr := a.textBase, a.dataBase

	for i := range a.items {
		it := &a.items[i]
		buf, cur := &data, &dataAddr
		if it.text {
			buf, cur = &text, &textAddr
		}
		if it.addr != *cur {
			return nil, a.errf(it.line, "internal: address drift (%#x vs %#x)", it.addr, *cur)
		}
		switch {
		case it.inst != nil:
			in := it.inst.in
			if ref := it.inst.targetRef; ref != "" {
				v, err := resolve(it.line, ref)
				if err != nil {
					return nil, err
				}
				if !a.inText[ref] {
					return nil, a.errf(it.line, "%s target %q is not in the text section", in.Op, ref)
				}
				in.Target = v
			}
			if ref := it.inst.immRef; ref != "" {
				v, err := resolve(it.line, ref)
				if err != nil {
					return nil, err
				}
				in.Imm = int32(v)
				if a.inText[ref] {
					// A code-address constant: record the field so the ILR
					// rewriter can retarget it.
					relocs = append(relocs, program.Reloc{Addr: it.addr + 2, InCode: true})
				}
			}
			if in.Op.HasTarget() {
				relocs = append(relocs, program.Reloc{Addr: it.addr + isa.TargetFieldOffset, InCode: true})
			}
			*buf = isa.Encode(*buf, in)
			*cur += uint32(in.Op.Length())
		case it.words != nil:
			for wi, op := range it.words {
				v := op.val
				if op.ref != "" {
					rv, err := resolve(it.line, op.ref)
					if err != nil {
						return nil, err
					}
					v = rv
					if it.isAddrTb || a.inText[op.ref] {
						relocs = append(relocs, program.Reloc{Addr: it.addr + uint32(4*wi), InCode: false})
					}
				}
				*buf = append(*buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
			}
			*cur += uint32(4 * len(it.words))
		default:
			*buf = append(*buf, it.raw...)
			*cur += uint32(len(it.raw))
		}
	}

	entry, ok := a.labels[a.entry]
	if !ok {
		return nil, a.errf(0, "entry label %q undefined", a.entry)
	}
	if !a.inText[a.entry] {
		return nil, a.errf(0, "entry label %q is not in the text section", a.entry)
	}

	img := &program.Image{Name: name, Entry: entry}
	if len(text) == 0 {
		return nil, a.errf(0, "no instructions assembled")
	}
	img.Segments = append(img.Segments, program.Segment{
		Name: program.SegText, Addr: a.textBase, Data: text, Perm: program.PermR | program.PermX,
	})
	if len(data) > 0 {
		img.Segments = append(img.Segments, program.Segment{
			Name: program.SegData, Addr: a.dataBase, Data: data, Perm: program.PermR | program.PermW,
		})
	}
	for label, addr := range a.labels {
		img.Symbols = append(img.Symbols, program.Symbol{
			Name: label,
			Addr: addr,
			Func: a.funcs[label] || label == a.entry,
		})
	}
	// Labels come from a map: order them so one source always assembles to
	// the same image bytes.
	sort.Slice(img.Symbols, func(i, j int) bool {
		si, sj := img.Symbols[i], img.Symbols[j]
		return si.Addr < sj.Addr || si.Addr == sj.Addr && si.Name < sj.Name
	})
	img.Relocs = relocs
	if err := img.Validate(); err != nil {
		return nil, fmt.Errorf("asm: assembled image invalid: %w", err)
	}
	return img, nil
}

func isIdent(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r == '_' || r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z':
		case i > 0 && (r >= '0' && r <= '9' || r == '.'):
		default:
			return false
		}
	}
	return true
}

// fitsWord reports whether a parsed operand is a 32-bit value, signed or
// unsigned (-2^31 through 2^32-1). Wider values are refused, not truncated.
func fitsWord(v int64) bool { return v >= math.MinInt32 && v <= math.MaxUint32 }

func parseInt(s string) (int64, error) {
	s = strings.TrimSpace(s)
	if len(s) >= 3 && s[0] == '\'' && s[len(s)-1] == '\'' {
		body, err := parseString(`"` + s[1:len(s)-1] + `"`)
		if err != nil || len(body) != 1 {
			return 0, fmt.Errorf("bad character literal %q", s)
		}
		return int64(body[0]), nil
	}
	return strconv.ParseInt(s, 0, 64)
}

func parseString(s string) ([]byte, error) {
	s = strings.TrimSpace(s)
	if len(s) < 2 || s[0] != '"' || s[len(s)-1] != '"' {
		return nil, fmt.Errorf("expected quoted string, got %q", s)
	}
	body := s[1 : len(s)-1]
	out := make([]byte, 0, len(body))
	for i := 0; i < len(body); i++ {
		c := body[i]
		if c != '\\' {
			out = append(out, c)
			continue
		}
		i++
		if i >= len(body) {
			return nil, fmt.Errorf("trailing backslash in %q", s)
		}
		switch body[i] {
		case 'n':
			out = append(out, '\n')
		case 't':
			out = append(out, '\t')
		case '0':
			out = append(out, 0)
		case '\\', '"', '\'':
			out = append(out, body[i])
		default:
			return nil, fmt.Errorf("unknown escape \\%c", body[i])
		}
	}
	return out, nil
}
