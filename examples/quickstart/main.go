// Quickstart: assemble a program, randomize it, run it under VCFR, and look
// at the security and performance story end to end.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"vcfr/internal/asm"
	"vcfr/internal/cpu"
	"vcfr/internal/emu"
	"vcfr/internal/gadget"
	"vcfr/internal/harness"
	"vcfr/internal/ilr"
	"vcfr/internal/workloads"
)

// A program with a loop, a helper function, and an indirect call — enough
// control flow for the randomization to have something to chew on.
const source = `
.entry main
main:
	movi r10, 1000       ; sum squares of 1..1000 through a function pointer
	movi r9, 0
	movi r11, square     ; code-address constant (relocated by the rewriter)
loop:
	cmpi r10, 0
	je done
	mov r1, r10
	callr r11
	add r9, r0
	subi r10, 1
	jmp loop
done:
	mov r1, r9
	sys 3                ; print r9
	movi r1, 0
	sys 0

.func square
square:
	mov r0, r1
	mul r0, r1
	ret
`

func main() {
	// 1. Assemble and randomize. Equal seeds give identical layouts; a
	//    production deployment would draw the seed from a CSPRNG and
	//    re-randomize periodically.
	img := asm.MustAssemble("quickstart", source)
	app, err := harness.NewApp(workloads.Workload{Name: "quickstart", Img: img}, ilr.Options{Seed: 2026})
	if err != nil {
		log.Fatal(err)
	}
	st := app.R.Stats
	fmt.Printf("randomized %d instructions, %.1f bits of placement entropy, %d-byte tables\n",
		st.Instructions, st.EntropyBits, st.TableBytes)

	// 2. Functional equivalence: the randomized binary behaves identically.
	native, err := app.Emulate(emu.ModeNative, nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	vcfr, err := app.Emulate(emu.ModeVCFR, nil, 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("native output: %q   VCFR output: %q   (equal: %v)\n",
		native.Out, vcfr.Out, string(native.Out) == string(vcfr.Out))

	// 3. Attack surface: how many ROP gadgets survive randomization?
	pool := gadget.Scan(app.R.Orig, gadget.DefaultMaxInsts)
	surv := gadget.Survivors(pool, app.R.Tables)
	fmt.Printf("gadgets: %d before, %d after randomization (%.1f%% removed)\n",
		len(pool), len(surv), 100*gadget.RemovalRate(pool, surv))
	before, after := gadget.TryAllTemplates(pool), gadget.TryAllTemplates(surv)
	for _, tmpl := range []string{"print-and-exit", "write-what-where", "exfiltrate"} {
		fmt.Printf("  payload %-18s before: %-9v after: %v\n",
			tmpl, verdict(before[tmpl]), verdict(after[tmpl]))
	}

	// 4. Cycle-level cost: what does the hardware support cost?
	base, _, err := app.Run(cpu.ModeBaseline, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	prot, _, err := app.Run(cpu.ModeVCFR, 0, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("baseline IPC %.3f, VCFR IPC %.3f (%.1f%% overhead), %d DRC lookups (%.1f%% miss)\n",
		base.Stats.IPC(), prot.Stats.IPC(),
		100*(1-prot.Stats.IPC()/base.Stats.IPC()),
		prot.DRC.Lookups, 100*prot.DRC.MissRate())
}

func verdict(assembles bool) string {
	if assembles {
		return "assembles"
	}
	return "fails"
}
