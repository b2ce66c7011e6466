package attack

import (
	"bytes"
	"context"
	"errors"
	"strings"

	"vcfr/internal/cpu"
	"vcfr/internal/emu"
	"vcfr/internal/gadget"
	"vcfr/internal/harness"
	"vcfr/internal/ilr"
	"vcfr/internal/isa"
)

// fire launches the chain through the canonical memory-corruption entry
// point: the victim runs normally until its first return, whose popped
// return address is replaced by the chain's first gadget and whose stack
// slot is overflowed with the remaining words — a classic stack smash,
// expressed as injector hooks so every mode's machine reacts exactly as its
// hardware would. The empty outcome means the context was cancelled before
// a verdict. A simulator panic classifies as a crash: the machine died with
// the attack in flight.
func fire(ctx context.Context, app *harness.App, mode cpu.Mode, res *ilr.Result,
	ch gadget.Chain, payload Payload, maxInsts uint64) (o Outcome) {
	defer func() {
		if recover() != nil {
			o = OutcomeCrash
		}
	}()
	p, _, err := (&harness.App{W: app.W, R: res}).Pipeline(mode, nil)
	if err != nil {
		return OutcomeCrash
	}
	defer p.Release() // after classify, which reads the victim's memory
	mem := p.State().Mem
	if payload == PayloadExfil {
		for i, b := range secret {
			mem.SetByte(SecretAddr+uint32(i), b)
		}
	}
	fired := false
	p.SetInjector(&cpu.InjectHooks{
		Outcome: func(seq uint64, in isa.Inst, out *emu.Outcome) {
			if fired || in.Class() != isa.ClassRet {
				return
			}
			fired = true
			out.Target = ch.Words[0]
			for i, w := range ch.Words[1:] {
				mem.WriteWord(out.MemAddr+4+uint32(i)*4, w)
			}
		},
	})
	res2, err := p.RunContext(ctx, maxInsts)
	if err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)) {
		return ""
	}
	return classify(p, res2, err, payload, fired)
}

// classify maps one hijacked run onto the outcome taxonomy. Success is
// judged purely architecturally, against the payload's intended effect.
func classify(p *cpu.Pipeline, res cpu.Result, err error, payload Payload, fired bool) Outcome {
	if err != nil {
		if errors.Is(err, cpu.ErrControlViolation) {
			return OutcomeBlockedRPC
		}
		var f *emu.Fault
		if errors.As(err, &f) &&
			(strings.HasPrefix(f.Msg, "fetch:") || strings.HasPrefix(f.Msg, "invalid opcode")) {
			return OutcomeBlockedIllegal
		}
		return OutcomeCrash
	}
	if !fired {
		return OutcomeNoEffect
	}
	switch payload {
	case PayloadWrite:
		if p.State().Mem.ReadWord(WriteAddr) == WriteValue {
			return OutcomeSuccess
		}
	case PayloadExfil:
		if bytes.Contains(res.Out, secret) {
			return OutcomeSuccess
		}
	default:
		if bytes.Contains(res.Out, []byte(marker)) {
			return OutcomeSuccess
		}
	}
	return OutcomeNoEffect
}
