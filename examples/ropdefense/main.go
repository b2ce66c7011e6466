// ropdefense mounts a real return-oriented-programming attack against a
// vulnerable network-service-style program and shows the three outcomes of
// the paper's threat model (Sec. II, Sec. V):
//
//  1. benign input: the service works, randomized or not;
//
//  2. the ROP payload against the unprotected binary: full control-flow
//     hijack (the attacker's message appears, the service never recovers);
//
//  3. the same payload against the VCFR-protected binary: the very first
//     gadget address trips the randomized-tag check and the machine faults.
//
//     go run ./examples/ropdefense
package main

import (
	"errors"
	"fmt"
	"log"

	"vcfr/internal/asm"
	"vcfr/internal/emu"
	"vcfr/internal/gadget"
	"vcfr/internal/harness"
	"vcfr/internal/ilr"
	"vcfr/internal/workloads"
)

// The victim: reads a request into a fixed 32-byte stack buffer with no
// bounds check (the classic CWE-121), then echoes a status line. Its
// statically linked runtime functions carry the usual gadget supply.
const victimSource = `
.entry main
main:
	call handle
	movi r1, 'o'
	sys 1
	movi r1, 'k'
	sys 1
	movi r1, 10
	sys 1
	movi r1, 0
	sys 0

; handle reads the request into buf[32] on the stack. No bounds check.
.func handle
handle:
	subi sp, 32
	mov r2, sp
readl:
	sys 2               ; getchar -> r0
	cmpi r0, -1
	je rdone
	mov r1, r0
	storeb [r2+0], r1
	addi r2, 1
	jmp readl
rdone:
	addi sp, 32
	ret

; ---- statically linked runtime (the gadget supply) ----
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
.func restore5
restore5:
	pop r5
	ret
.func storefn
storefn:
	store [r5+0], r1
	ret
`

func main() {
	img := asm.MustAssemble("victim", victimSource)
	app, err := harness.NewApp(workloads.Workload{Name: "victim", Img: img}, ilr.Options{Seed: 1337})
	if err != nil {
		log.Fatal(err)
	}

	// The attacker studies the DISTRIBUTED binary (the original layout) and
	// compiles a payload, exactly like ROPgadget's auto-roper.
	pool := gadget.Scan(app.R.Orig, gadget.DefaultMaxInsts)
	chain, err := gadget.BuildPrintChain(pool, "PWNED!")
	if err != nil {
		log.Fatalf("payload assembly: %v", err)
	}
	fmt.Printf("attacker found %d gadgets; payload uses %d (e.g. %q at %#x)\n",
		len(pool), len(chain.Gadgets), chain.Gadgets[0].String(), chain.Gadgets[0].Addr)

	// 32 filler bytes overflow the buffer; the chain lands on the saved
	// return address and beyond.
	payload := append(make([]byte, 32), chain.Bytes()...)

	fmt.Println("\n--- benign request, unprotected binary ---")
	report(app.Emulate(emu.ModeNative, []byte("GET /"), 0))

	fmt.Println("\n--- benign request, VCFR-protected binary ---")
	report(app.Emulate(emu.ModeVCFR, []byte("GET /"), 0))

	fmt.Println("\n--- ROP payload, unprotected binary ---")
	report(app.Emulate(emu.ModeNative, payload, 0))

	fmt.Println("\n--- ROP payload, VCFR-protected binary ---")
	report(app.Emulate(emu.ModeVCFR, payload, 0))
}

func report(res emu.RunResult, err error) {
	switch {
	case errors.Is(err, emu.ErrControlViolation):
		fmt.Printf("FAULT: %v\n", err)
		fmt.Println("(the gadget address is an un-randomized location whose randomized tag is set)")
	case err != nil:
		fmt.Printf("error: %v\n", err)
	default:
		fmt.Printf("output: %q (exit %d)\n", res.Out, res.ExitCode)
	}
}
