// rerandomize demonstrates the paper's leakage defense (Sec. V-C): even if
// an attacker somehow learns one generation's randomization tables, periodic
// re-randomization makes the knowledge stale. The example randomizes the
// same binary under several epochs, verifies behaviour never changes, and
// shows that a payload compiled against a LEAKED epoch's layout faults once
// the system has moved to the next epoch.
//
//	go run ./examples/rerandomize
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

const serviceSource = `
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

func main() {
	img := asm.MustAssemble("svc", serviceSource)
	epoch1, err := harness.NewApp(workloads.Workload{Name: "svc", Img: img}, ilr.Options{Seed: 100})
	if err != nil {
		log.Fatal(err)
	}
	// rerandomize is the next epoch: the same program under a fresh layout.
	rerandomize := func(a *harness.App, seed int64) *harness.App {
		res, err := a.R.Rerandomize(seed)
		if err != nil {
			log.Fatal(err)
		}
		return &harness.App{W: a.W, R: res}
	}

	// Several epochs: layouts differ, behaviour does not.
	fmt.Println("epoch  entry placement  output")
	cur := epoch1
	for seed := int64(100); seed < 104; seed++ {
		if seed > 100 {
			cur = rerandomize(cur, seed)
		}
		randEntry, _ := cur.R.Tables.ToRand(cur.R.Orig.Entry)
		out, err := cur.Emulate(emu.ModeVCFR, []byte("ping"), 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-6d %#08x       %q\n", seed, randEntry, out.Out)
	}

	// The leak scenario: the attacker obtains epoch 1's full tables and
	// compiles a payload in RANDOMIZED addresses — the strongest possible
	// leak. They target the randomized address of the `quit` gadget.
	quitAddr, _ := epoch1.R.Orig.Lookup("quit")
	leakedQuit, _ := epoch1.R.Tables.ToRand(quitAddr)
	pool := gadget.Scan(epoch1.R.Orig, gadget.DefaultMaxInsts)
	chain, err := gadget.BuildPrintChain(pool, "X")
	if err != nil {
		log.Fatal(err)
	}
	// Translate the chain into epoch-1 randomized space (perfect leak).
	leaked := make([]uint32, len(chain.Words))
	for i, w := range chain.Words {
		if r, ok := epoch1.R.Tables.ToRand(w); ok {
			leaked[i] = r
		} else {
			leaked[i] = w
		}
	}
	payload := make([]byte, 32, 32+4*len(leaked))
	for _, w := range leaked {
		payload = append(payload, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
	}

	fmt.Printf("\nattacker leaked epoch-100 tables (quit gadget at randomized %#x)\n", leakedQuit)

	_, err = epoch1.Emulate(emu.ModeVCFR, payload, 0)
	fmt.Printf("payload vs leaked epoch:     %s\n", attackVerdict(err))

	epoch2 := rerandomize(epoch1, 9999)
	_, err = epoch2.Emulate(emu.ModeVCFR, payload, 0)
	fmt.Printf("payload vs re-randomized:    %s\n", attackVerdict(err))
	fmt.Println("\nre-randomization invalidated the leak: the old randomized addresses no")
	fmt.Println("longer decode to the attacker's gadgets (or to anything at all).")
}

func attackVerdict(err error) string {
	switch {
	case err == nil:
		return "SUCCEEDED (control hijacked)"
	case errors.Is(err, emu.ErrControlViolation):
		return "blocked: control-flow violation fault"
	default:
		return "blocked: " + err.Error()
	}
}
