package asm

import (
	"errors"
	"strings"
	"testing"

	"vcfr/internal/isa"
	"vcfr/internal/program"
)

const helloSource = `
; tiny program: print "hi", exit 0
.text 0x1000
.entry main

.func main
main:
	movi r1, 'h'
	sys 1
	movi r1, 'i'
	sys 1
	movi r1, 0
	sys 0
	halt

.data 0x20000
greeting: .ascii "hi\n"
nums:     .word 1, 2, 0x10
table:    .addr main, main
gap:      .space 5
.align 4
aligned:  .word 7
`

func TestAssembleHello(t *testing.T) {
	img, err := Assemble("hello", helloSource)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	if err := img.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if img.Entry != 0x1000 {
		t.Errorf("entry = %#x, want 0x1000", img.Entry)
	}
	insts, err := Disassemble(img)
	if err != nil {
		t.Fatalf("Disassemble: %v", err)
	}
	if len(insts) != 7 {
		t.Fatalf("got %d instructions, want 7", len(insts))
	}
	if insts[0].Op != isa.OpMovRI || insts[0].Imm != 'h' {
		t.Errorf("first inst = %v", insts[0])
	}
	if insts[6].Op != isa.OpHalt {
		t.Errorf("last inst = %v", insts[6])
	}

	// Data contents: "hi\n", then words, then the .addr table relocated.
	data := img.Seg(program.SegData)
	if data == nil {
		t.Fatal("no data segment")
	}
	if got := string(data.Data[:3]); got != "hi\n" {
		t.Errorf("ascii data = %q", got)
	}
	w, err := img.ReadWord(0x20003)
	if err != nil || w != 1 {
		t.Errorf("nums[0] = %d, %v", w, err)
	}
	addr, ok := img.Lookup("table")
	if !ok {
		t.Fatal("no table symbol")
	}
	w, err = img.ReadWord(addr)
	if err != nil || w != 0x1000 {
		t.Errorf("table[0] = %#x, %v (want main=0x1000)", w, err)
	}
	// .align 4 after 5-byte gap: aligned symbol must be 4-byte aligned.
	aaddr, ok := img.Lookup("aligned")
	if !ok || aaddr%4 != 0 {
		t.Errorf("aligned at %#x", aaddr)
	}

	// Relocations: two .addr words, and nothing else (no direct transfers).
	var dataRelocs int
	for _, r := range img.Relocs {
		if !r.InCode {
			dataRelocs++
		}
	}
	if dataRelocs != 2 {
		t.Errorf("data relocs = %d, want 2", dataRelocs)
	}
}

func TestAssembleControlFlowRelocs(t *testing.T) {
	src := `
.entry main
main:
	movi r1, helper     ; code-address constant -> reloc
	callr r1
	call helper
	cmpi r0, 10
	jne main
	ret
.func helper
helper:
	movi r0, 1
	ret
`
	img, err := Assemble("cf", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	var inCode int
	for _, r := range img.Relocs {
		if r.InCode {
			inCode++
		}
	}
	// movi imm field + call target + jne target.
	if inCode != 3 {
		t.Errorf("in-code relocs = %d, want 3", inCode)
	}
	helper, _ := img.Lookup("helper")
	insts, err := Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	m := InstMap(insts)
	// movi must carry helper's address as an immediate.
	first := insts[0]
	if first.Op != isa.OpMovRI || uint32(first.Imm) != helper {
		t.Errorf("movi = %v, want imm %#x", first, helper)
	}
	// call must target helper.
	found := false
	for _, in := range m {
		if in.Op == isa.OpCall && in.Target == helper {
			found = true
		}
	}
	if !found {
		t.Error("no call targeting helper")
	}
}

func TestAssembleMemOperands(t *testing.T) {
	src := `
.entry main
main:
	load r1, [sp+4]
	load r2, [bp-8]
	load r3, [r4]
	load r5, [r6+r7]    ; auto-converts to loadr
	loadr r8, [r9+r10]
	store [sp+4], r1
	storer [r2+r3], r4
	storeb [r5-1], r6
	lea r7, [sp+16]
	halt
`
	img, err := Assemble("mem", src)
	if err != nil {
		t.Fatalf("Assemble: %v", err)
	}
	insts, err := Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	wantOps := []isa.Op{
		isa.OpLoad, isa.OpLoad, isa.OpLoad, isa.OpLoadR, isa.OpLoadR,
		isa.OpStore, isa.OpStoreR, isa.OpStoreB, isa.OpLea, isa.OpHalt,
	}
	for i, want := range wantOps {
		if insts[i].Op != want {
			t.Errorf("inst %d = %s, want %s", i, insts[i].Op, want)
		}
	}
	if insts[1].Imm != -8 {
		t.Errorf("bp-8 offset = %d", insts[1].Imm)
	}
	if insts[3].Rs != 6 || insts[3].Rt != 7 {
		t.Errorf("loadr operands = %v", insts[3])
	}
}

func TestAssembleErrors(t *testing.T) {
	tests := []struct {
		name, src, want string
	}{
		{"unknown mnemonic", ".entry m\nm: frob r1\nhalt", "unknown mnemonic"},
		{"undefined label", ".entry m\nm: jmp nowhere", "undefined label"},
		{"duplicate label", ".entry m\nm: nop\nm: halt", "duplicate label"},
		{"no entry", "nop", "no .entry"},
		{"bad register", ".entry m\nm: push r99", "not a register"},
		{"bad operand count", ".entry m\nm: add r1", "want 2 operands"},
		{"inst in data", ".entry m\nm: nop\n.data\nadd r1, r2", "in data section"},
		{"offset range", ".entry m\nm: load r1, [sp+40000]", "out of 16-bit range"},
		{"data entry", ".entry x\nnop\n.data\nx: .word 1", "not in the text"},
		{"bad directive", ".entry m\n.bogus 3\nm: halt", "unknown directive"},
		{"addr with number", ".entry m\nm: halt\n.data\n.addr 42", "must be labels"},
		{"jump to data label", ".entry m\nm: jmp d\n.data\nd: .word 0", "not in the text section"},
		{"code addr in text", ".entry m\nm: halt\n.addr m", "must live in the data section"},
		{"word in text", ".entry m\nm: halt\n.word 0xffffffff", "must live in the data section"},
		{"text base past 32 bits", ".text 0x100002000\n.entry m\nm: halt", "bad address"},
		{"negative data base", ".data -4096\n.text\n.entry m\nm: halt", "bad address"},
		{"ascii in text", ".entry m\nm: halt\n.ascii \"ab\"", "must live in the data section"},
		{"storeb indexed", ".entry m\nm: storeb [r1+r2], r3", "storeb does not support"},
		{"loadr with offset", ".entry m\nm: loadr r1, [r2+4]", "loadr requires"},
		{"immediate past 32 bits", ".entry m\nm: movi r1, 0x1ffffffff\nhalt", "out of 32-bit range"},
		{"immediate below -2^31", ".entry m\nm: addi r1, -0x80000001\nhalt", "out of 32-bit range"},
		{"branch target past 32 bits", ".entry m\nm: jmp 0x100001000", "out of 32-bit range"},
		{"offset past 32 bits", ".entry m\nm: load r1, [sp+0x100000000]", "out of 16-bit range"},
		{"word past 32 bits", ".entry m\nm: halt\n.data\n.word 1, 0x100000000", "out of 32-bit range"},
		{"word below -2^31", ".entry m\nm: halt\n.data\n.word -0x80000001", "out of 32-bit range"},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Assemble("bad", tt.src)
			if err == nil {
				t.Fatal("Assemble succeeded, want error")
			}
			if !strings.Contains(err.Error(), tt.want) {
				t.Errorf("error %q does not contain %q", err, tt.want)
			}
		})
	}
}

func TestSyntaxErrorHasLine(t *testing.T) {
	_, err := Assemble("bad", ".entry m\nm: nop\nfrob r1\nhalt")
	var serr *SyntaxError
	if !errors.As(err, &serr) {
		t.Fatalf("error %T is not *SyntaxError", err)
	}
	if serr.Line != 3 {
		t.Errorf("line = %d, want 3", serr.Line)
	}
}

// TestAssembleSectionBounds: a .space or .align that would carry its
// section past the 32-bit address space, or past maxSection bytes, is a
// syntax error on its own line, refused before its zeros are allocated;
// sections that fit assemble.
func TestAssembleSectionBounds(t *testing.T) {
	tests := []struct {
		name, src string
		line      int // 0: assembles
	}{
		{"space max int64", ".entry m\nm: halt\n.data\nb: .space 0x7fffffffffffffff", 4},
		{"space 4 GiB", ".entry m\nm: halt\n.data\nb: .space 0x100000000", 4},
		{"align 4 GiB", ".entry m\nm: halt\n.data\n.word 1\n.align 0x100000000", 5},
		{"align 2^62", ".entry m\nm: halt\n.align 0x4000000000000000", 3},
		{"text to the top", ".text 0xfffff000\n.entry m\nm: halt\n.space 0xfff", 4},
		{"text just fits", ".text 0xfffff000\n.entry m\nm: halt\n.space 0xffe", 0},
		{"space past cap", ".entry m\nm: halt\n.data\n.space 0x800000\n.space 0x800001", 5},
		{"space at cap", ".entry m\nm: halt\n.data\n.space 0x800000\n.space 0x800000", 0},
		{"align past cap", ".entry m\nm: halt\n.data\n.word 1\n.align 0x2000000", 5},
		{"align fits", ".entry m\nm: halt\n.data\n.word 1\n.align 0x1000", 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Assemble("bounds", tt.src)
			if tt.line == 0 {
				if err != nil {
					t.Fatalf("Assemble: %v", err)
				}
				return
			}
			var serr *SyntaxError
			if !errors.As(err, &serr) {
				t.Fatalf("error %v (%T) is not a *SyntaxError", err, err)
			}
			if serr.Line != tt.line {
				t.Errorf("error %q on line %d, want %d", err, serr.Line, tt.line)
			}
		})
	}
}

func TestRoundTripThroughListing(t *testing.T) {
	img := MustAssemble("rt", `
.entry main
main:
	movi r1, 10
loop:
	subi r1, 1
	cmpi r1, 0
	jne loop
	halt
`)
	listing, err := Listing(img)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"main:", "loop:", "movi r1, 10", "jne", "halt"} {
		if !strings.Contains(listing, want) {
			t.Errorf("listing missing %q:\n%s", want, listing)
		}
	}
}

func TestDisassembleSkipsZeroPadding(t *testing.T) {
	img := MustAssemble("pad", ".entry m\nm: nop\n.align 8\nend: halt")
	insts, err := Disassemble(img)
	if err != nil {
		t.Fatal(err)
	}
	if len(insts) != 2 {
		t.Fatalf("got %d instructions, want 2 (padding skipped)", len(insts))
	}
	endAddr, _ := img.Lookup("end")
	if insts[1].Addr != endAddr {
		t.Errorf("second inst at %#x, want %#x", insts[1].Addr, endAddr)
	}
}

func TestDisassembleRejectsGarbage(t *testing.T) {
	img := MustAssemble("g", ".entry m\nm: halt")
	img.Text().Data[0] = 0xfe // invalid opcode
	if _, err := Disassemble(img); err == nil {
		t.Error("Disassemble of garbage succeeded")
	}
}

func TestMustAssemblePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustAssemble did not panic on bad source")
		}
	}()
	MustAssemble("bad", "not valid at all")
}

func TestSplitOperands(t *testing.T) {
	tests := []struct {
		in   string
		want []string
	}{
		{"", nil},
		{"r1", []string{"r1"}},
		{"r1, r2", []string{"r1", "r2"}},
		{"r1, [sp+4]", []string{"r1", "[sp+4]"}},
		{"[r1+r2], r3", []string{"[r1+r2]", "r3"}},
	}
	for _, tt := range tests {
		got := splitOperands(tt.in)
		if len(got) != len(tt.want) {
			t.Errorf("splitOperands(%q) = %v", tt.in, got)
			continue
		}
		for i := range got {
			if got[i] != tt.want[i] {
				t.Errorf("splitOperands(%q)[%d] = %q, want %q", tt.in, i, got[i], tt.want[i])
			}
		}
	}
}
