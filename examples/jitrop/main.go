// jitrop plays out the just-in-time code-reuse attack of Snow et al. (cited
// in the paper's introduction as the reason fine-grained *load-time*
// randomization is not enough): the attacker first uses a memory-disclosure
// bug to READ the victim's code at run time, harvests gadgets from the
// leaked bytes, compiles a payload on the fly, and only then fires the
// control-flow hijack.
//
// Two defenses face the same attacker:
//
//   - software in-place randomization (the Pappas-style baseline): the
//     leaked bytes ARE the executable layout, so the harvested gadget
//     addresses are directly usable — JIT-ROP wins;
//
//   - VCFR: the leaked bytes show the ORIGINAL layout (that is what memory
//     holds!), but those addresses are not executable — control may only
//     flow through randomized-space addresses, which appear nowhere in
//     readable memory (the tables are in pages invisible to user space).
//     The freshly compiled payload faults on its first gadget.
//
//     go run ./examples/jitrop
package main

import (
	"errors"
	"fmt"
	"log"

	"vcfr/internal/asm"
	"vcfr/internal/cpu"
	"vcfr/internal/emu"
	"vcfr/internal/gadget"
	"vcfr/internal/ilr"
	"vcfr/internal/program"
)

const victimSource = `
.entry main
main:
	call handle
	movi r1, 'o'
	sys 1
	movi r1, 'k'
	sys 1
	movi r1, 0
	sys 0
.func handle
handle:
	subi sp, 32
	mov r2, sp
readl:
	sys 2
	cmpi r0, -1
	je rdone
	mov r1, r0
	storeb [r2+0], r1
	addi r2, 1
	jmp readl
rdone:
	addi sp, 32
	ret
.func putch
putch:
	sys 1
	ret
.func quit
quit:
	sys 0
	ret
.func restore1
restore1:
	pop r1
	ret
`

// discloseText models the arbitrary-read primitive: the attacker dumps the
// victim's executable region out of the running process's memory.
func discloseText(m *emu.Machine, textBase uint32, size int) *program.Image {
	leaked := make([]byte, size)
	m.Mem().ReadBytes(textBase, leaked)
	return &program.Image{
		Name:  "leaked",
		Entry: textBase,
		Segments: []program.Segment{{
			Name: program.SegText, Addr: textBase, Data: leaked,
			Perm: program.PermR | program.PermX,
		}},
	}
}

func main() {
	img := asm.MustAssemble("victim", victimSource)

	fmt.Println("=== JIT-ROP vs software in-place randomization ===")
	inplace, _, err := ilr.InPlace(img, 77)
	if err != nil {
		log.Fatal(err)
	}
	attackNative(inplace)

	fmt.Println("\n=== JIT-ROP vs VCFR ===")
	res, err := ilr.Rewrite(img, ilr.Options{Seed: 77})
	if err != nil {
		log.Fatal(err)
	}
	attackVCFR(res)
}

// attackNative mounts the disclosure-then-hijack sequence against a natively
// running (in-place-randomized) victim.
func attackNative(victim *program.Image) {
	m, err := emu.NewMachine(victim, emu.Config{Mode: emu.ModeNative})
	if err != nil {
		log.Fatal(err)
	}
	text := victim.Text()
	leaked := discloseText(m, text.Addr, len(text.Data))
	pool := gadget.Scan(leaked, gadget.DefaultMaxInsts)
	chain, err := gadget.BuildPrintChain(pool, "JITROP")
	if err != nil {
		fmt.Printf("payload compilation failed: %v\n", err)
		return
	}
	fmt.Printf("disclosed %d bytes, harvested %d gadgets, compiled a %d-word chain\n",
		len(text.Data), len(pool), len(chain.Words))

	payload := append(make([]byte, 32), chain.Bytes()...)
	out, err := emu.Run(victim, emu.Config{Mode: emu.ModeNative, Input: payload})
	switch {
	case err != nil:
		fmt.Printf("attack outcome: fault (%v)\n", err)
	default:
		fmt.Printf("attack outcome: output %q — the in-place layout leaked everything the attacker needed\n", out.Out)
	}
}

// attackVCFR mounts the identical sequence against the VCFR-protected
// victim.
func attackVCFR(res *ilr.Result) {
	img, trans, randRA := cpu.ModeVCFR.Deploy(res)
	m, err := emu.NewMachine(img, emu.Config{Mode: emu.ModeVCFR, Trans: trans, RandRA: randRA})
	if err != nil {
		log.Fatal(err)
	}
	text := img.Text()
	leaked := discloseText(m, text.Addr, len(text.Data))
	pool := gadget.Scan(leaked, gadget.DefaultMaxInsts)
	chain, err := gadget.BuildPrintChain(pool, "JITROP")
	if err != nil {
		fmt.Printf("payload compilation failed: %v\n", err)
		return
	}
	fmt.Printf("disclosed %d bytes (the ORIGINAL layout — that is what memory holds), "+
		"harvested %d gadgets, compiled a %d-word chain\n",
		len(text.Data), len(pool), len(chain.Words))

	payload := append(make([]byte, 32), chain.Bytes()...)
	_, err = emu.Run(img, emu.Config{Mode: emu.ModeVCFR, Trans: trans, RandRA: randRA, Input: payload})
	switch {
	case errors.Is(err, emu.ErrControlViolation):
		fmt.Printf("attack outcome: control-flow violation fault (%v)\n", err)
		fmt.Println("the leaked addresses are readable but NOT executable: execution lives in the")
		fmt.Println("randomized space, and the only map into it — the tables — is invisible to user space")
	case err != nil:
		fmt.Printf("attack outcome: fault (%v)\n", err)
	default:
		fmt.Println("attack outcome: SUCCEEDED (unexpected!)")
	}
}
