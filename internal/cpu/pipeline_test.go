package cpu

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"vcfr/internal/asm"
	"vcfr/internal/emu"
	"vcfr/internal/ilr"
)

const fibSrc = `
.entry main
main:
	movi r1, 0
	movi r2, 1
	movi r3, 20
loop:
	cmpi r3, 0
	je done
	mov r4, r2
	add r2, r1
	mov r1, r4
	subi r3, 1
	jmp loop
done:
	sys 3
	movi r1, 0
	sys 0
`

const callHeavySrc = `
.entry main
main:
	movi r8, 200        ; iterations
outer:
	cmpi r8, 0
	je done
	movi r1, 6
	call fact
	call mix
	subi r8, 1
	jmp outer
done:
	mov r1, r9
	sys 3
	movi r1, 0
	sys 0
.func fact
fact:
	cmpi r1, 1
	jg fr
	movi r0, 1
	ret
fr:
	push r1
	subi r1, 1
	call fact
	pop r1
	mul r0, r1
	ret
.func mix
mix:
	add r9, r0
	andi r9, 0xffff
	ret
`

// rewrite builds the ILR artifacts for a source program.
func rewriteSrc(t *testing.T, name, src string) *ilr.Result {
	t.Helper()
	img := asm.MustAssemble(name, src)
	res, err := ilr.Rewrite(img, ilr.Options{Seed: 99})
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	return res
}

// runPipe builds and runs a pipeline in the given mode over the rewrite
// artifacts.
func runPipe(t *testing.T, res *ilr.Result, mode Mode, mutate func(*Config)) Result {
	t.Helper()
	cfg := DefaultConfig(mode)
	if mutate != nil {
		mutate(&cfg)
	}
	img, trans, randRA := mode.Deploy(res)
	p, err := New(img, cfg, trans, randRA)
	if err != nil {
		t.Fatalf("New(%v): %v", mode, err)
	}
	out, err := p.Run(0)
	if err != nil {
		t.Fatalf("Run(%v): %v", mode, err)
	}
	return out
}

func TestPipelineBaselineMatchesEmulator(t *testing.T) {
	res := rewriteSrc(t, "fib", fibSrc)
	want, err := emu.Run(res.Orig, emu.Config{Mode: emu.ModeNative})
	if err != nil {
		t.Fatal(err)
	}
	got := runPipe(t, res, ModeBaseline, nil)
	if string(got.Out) != string(want.Out) {
		t.Errorf("pipeline out = %q, emulator = %q", got.Out, want.Out)
	}
	if got.Stats.Instructions != want.Stats.Instructions {
		t.Errorf("instructions = %d, emulator = %d",
			got.Stats.Instructions, want.Stats.Instructions)
	}
	if !got.Halted {
		t.Error("did not halt")
	}
}

func TestPipelineAllModesEquivalent(t *testing.T) {
	for _, tc := range []struct{ name, src, want string }{
		{"fib", fibSrc, "6765"},
		// 200 iterations of fact(6)=720 accumulate; andi 0xffff sign-extends
		// to -1, so the mask is the identity: 200*720 = 144000.
		{"calls", callHeavySrc, "144000"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			res := rewriteSrc(t, tc.name, tc.src)
			for _, mode := range []Mode{ModeBaseline, ModeNaiveILR, ModeVCFR} {
				got := runPipe(t, res, mode, nil)
				if string(got.Out) != tc.want {
					t.Errorf("%v: out = %q, want %q", mode, got.Out, tc.want)
				}
			}
		})
	}
}

func TestPipelineIPCSane(t *testing.T) {
	res := rewriteSrc(t, "fib", fibSrc)
	got := runPipe(t, res, ModeBaseline, nil)
	ipc := got.Stats.IPC()
	if ipc < 0.3 || ipc > 1.0 {
		t.Errorf("baseline IPC = %.3f, want in (0.3, 1.0]", ipc)
	}
	if got.Stats.Cycles == 0 || got.Stats.Instructions == 0 {
		t.Error("no cycles/instructions accounted")
	}
}

func TestPipelineVCFRNeverFasterThanBaselineOnCalls(t *testing.T) {
	res := rewriteSrc(t, "calls", callHeavySrc)
	base := runPipe(t, res, ModeBaseline, nil)
	vcfr := runPipe(t, res, ModeVCFR, nil)
	if vcfr.Stats.Instructions != base.Stats.Instructions {
		t.Fatalf("instruction counts differ: %d vs %d",
			vcfr.Stats.Instructions, base.Stats.Instructions)
	}
	if vcfr.Stats.Cycles < base.Stats.Cycles {
		t.Errorf("VCFR (%d cycles) beat baseline (%d cycles)",
			vcfr.Stats.Cycles, base.Stats.Cycles)
	}
	// But the overhead should be modest, nothing like naive ILR.
	if r := float64(vcfr.Stats.Cycles) / float64(base.Stats.Cycles); r > 1.35 {
		t.Errorf("VCFR overhead ratio %.2f, implausibly high", r)
	}
}

func TestPipelineVCFRUsesDRC(t *testing.T) {
	res := rewriteSrc(t, "calls", callHeavySrc)
	vcfr := runPipe(t, res, ModeVCFR, nil)
	if vcfr.DRC.Lookups == 0 {
		t.Fatal("no DRC lookups recorded")
	}
	if vcfr.DRC.RandLookups == 0 {
		t.Error("no randomization-direction lookups (calls should trigger them)")
	}
	if vcfr.Stats.Unrand != 0 {
		t.Errorf("unrandomized executions = %d, want 0", vcfr.Stats.Unrand)
	}
	base := runPipe(t, res, ModeBaseline, nil)
	if base.DRC.Lookups != 0 {
		t.Error("baseline recorded DRC lookups")
	}
}

func TestPipelineDRCSizeAffectsMissRate(t *testing.T) {
	res := rewriteSrc(t, "calls", callHeavySrc)
	big := runPipe(t, res, ModeVCFR, func(c *Config) { c.DRCEntries = 512 })
	small := runPipe(t, res, ModeVCFR, func(c *Config) { c.DRCEntries = 8 })
	if small.DRC.MissRate() <= big.DRC.MissRate() {
		t.Errorf("8-entry DRC miss rate %.3f <= 512-entry %.3f",
			small.DRC.MissRate(), big.DRC.MissRate())
	}
}

func TestPipelineNaiveILRDegradesIL1(t *testing.T) {
	res := rewriteSrc(t, "calls", callHeavySrc)
	base := runPipe(t, res, ModeBaseline, nil)
	naive := runPipe(t, res, ModeNaiveILR, nil)
	// The scattered layout must access IL1 far more often (one line per
	// instruction instead of one per ~13).
	if naive.IL1.Accesses < 3*base.IL1.Accesses {
		t.Errorf("naive IL1 accesses %d vs baseline %d: scatter not visible",
			naive.IL1.Accesses, base.IL1.Accesses)
	}
	// And downstream pressure on the L2 grows.
	if naive.L2.Accesses <= base.L2.Accesses {
		t.Errorf("naive L2 pressure %d <= baseline %d",
			naive.L2.Accesses, base.L2.Accesses)
	}
	// IPC suffers.
	if naive.Stats.IPC() >= base.Stats.IPC() {
		t.Errorf("naive IPC %.3f >= baseline %.3f", naive.Stats.IPC(), base.Stats.IPC())
	}
}

func TestPipelineVCFRPreservesFetchLocality(t *testing.T) {
	res := rewriteSrc(t, "calls", callHeavySrc)
	base := runPipe(t, res, ModeBaseline, nil)
	vcfr := runPipe(t, res, ModeVCFR, nil)
	naive := runPipe(t, res, ModeNaiveILR, nil)
	// VCFR's fetch behaviour is essentially the baseline's: same access
	// pattern, same line count. The naive mode touches far more lines.
	ratio := float64(vcfr.IL1.Accesses) / float64(base.IL1.Accesses)
	if ratio > 1.1 {
		t.Errorf("VCFR IL1 accesses %.2fx baseline", ratio)
	}
	if naive.IL1.Accesses < 3*vcfr.IL1.Accesses {
		t.Errorf("naive IL1 accesses %d vs VCFR %d: locality contrast missing",
			naive.IL1.Accesses, vcfr.IL1.Accesses)
	}
	// The IPC ordering naive < vcfr needs a program whose hot code exceeds
	// the IL1 when scattered; that is covered by the harness experiments on
	// the SPEC analogs (Fig. 12), not by this tiny kernel.
}

func TestPipelineBranchPredictionIdenticalAcrossSpaces(t *testing.T) {
	res := rewriteSrc(t, "fib", fibSrc)
	base := runPipe(t, res, ModeBaseline, nil)
	vcfr := runPipe(t, res, ModeVCFR, nil)
	if base.BPred.CondLookups != vcfr.BPred.CondLookups ||
		base.BPred.CondMispred != vcfr.BPred.CondMispred {
		t.Errorf("direction prediction diverged: base %+v vcfr %+v",
			base.BPred, vcfr.BPred)
	}
}

func TestPipelinePredictOnRPCAblation(t *testing.T) {
	res := rewriteSrc(t, "calls", callHeavySrc)
	upc := runPipe(t, res, ModeVCFR, nil)
	rpc := runPipe(t, res, ModeVCFR, func(c *Config) { c.PredictOnRPC = true })
	// Predicting in randomized space forces a DRC access on every correct
	// taken prediction: lookup traffic must rise substantially.
	if rpc.DRC.Lookups <= upc.DRC.Lookups {
		t.Errorf("PredictOnRPC lookups %d <= UPC-predicted %d",
			rpc.DRC.Lookups, upc.DRC.Lookups)
	}
}

// TestResolveTargetUninjectedNoAllocs: de-randomizing a VCFR target
// allocates nothing unless a Translated hook is armed; only that hook takes
// the resolved address.
func TestResolveTargetUninjectedNoAllocs(t *testing.T) {
	res := rewriteSrc(t, "calls", callHeavySrc)
	img, trans, randRA := ModeVCFR.Deploy(res)
	p, err := New(img, DefaultConfig(ModeVCFR), trans, randRA)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Release()
	fact, ok := res.Orig.Lookup("fact")
	if !ok {
		t.Fatal("no fact symbol")
	}
	target, ok := res.Tables.ToRand(fact)
	if !ok {
		t.Fatal("fact not randomized")
	}
	if orig, err := p.resolveTarget(target); err != nil || orig != fact {
		t.Fatalf("resolveTarget(%#x) = %#x, %v; want %#x", target, orig, err, fact)
	}
	if n := testing.AllocsPerRun(100, func() { p.resolveTarget(target) }); n != 0 {
		t.Errorf("uninjected resolveTarget: %.0f allocs, want 0", n)
	}
}

func TestPipelineControlViolationFaults(t *testing.T) {
	src := `
.entry main
main:
	movi r5, gadget     ; original-space address, prohibited after rewrite
	addi r5, 0          ; defeat constant-prop resolution
	jmpr r5
	halt
.func gadget
gadget:
	movi r1, 7
	ret
`
	img := asm.MustAssemble("attack", src)
	res, err := ilr.Rewrite(img, ilr.Options{Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	// The movi constant gets patched to the randomized address by the
	// rewriter (it is relocated) — so emulate the attacker by restoring the
	// ORIGINAL address in the register at run time instead: plant it via
	// the image's data... simplest: flip the patched word back.
	gadget, _ := img.Lookup("gadget")
	text := res.VCFR.Text()
	// movi r5, imm32 is the first instruction: imm at entry+2.
	res.VCFR.WriteWord(res.VCFR.Entry+2, gadget)
	_ = text
	p, err := New(res.VCFR, DefaultConfig(ModeVCFR), res.Tables, res.RandRA)
	if err != nil {
		t.Fatal(err)
	}
	_, err = p.Run(0)
	if !errors.Is(err, ErrControlViolation) {
		t.Errorf("err = %v, want ErrControlViolation", err)
	}
}

func TestPipelineConfigValidation(t *testing.T) {
	img := asm.MustAssemble("m", ".entry main\nmain: halt")
	bad := DefaultConfig(ModeBaseline)
	bad.GshareBits = 0
	if _, err := New(img, bad, nil, nil); err == nil {
		t.Error("bad gshare accepted")
	}
	bad = DefaultConfig(ModeVCFR)
	bad.DRCEntries = 0
	if _, err := New(img, bad, nil, nil); err == nil {
		t.Error("bad DRC accepted")
	}
	if _, err := New(img, DefaultConfig(ModeVCFR), nil, nil); err == nil {
		t.Error("VCFR without translator accepted")
	}
	cfg := DefaultConfig(ModeBaseline)
	cfg.Mode = Mode(0)
	if err := cfg.Validate(); err == nil {
		t.Error("zero mode accepted")
	}
	cfg = DefaultConfig(ModeBaseline)
	cfg.BTBEntries = 10
	cfg.BTBAssoc = 4
	if err := cfg.Validate(); err == nil {
		t.Error("indivisible BTB accepted")
	}
	cfg = DefaultConfig(ModeBaseline)
	cfg.RASDepth = 0
	if err := cfg.Validate(); err == nil {
		t.Error("zero RAS accepted")
	}
}

// TestPipelineStallBreakdownConsistent holds the cycle-conservation identity:
// at width 1 every cycle either issues an instruction or is charged to
// exactly one of the four stall accounts (DRCStall is a sub-account of
// ControlStall, not a fifth), in every mode, with and without the block
// cache. At width 2 the co-issue credit makes the accounts overcount, so
// only the bounds hold.
func TestPipelineStallBreakdownConsistent(t *testing.T) {
	srcs := []struct{ name, src string }{{"calls", callHeavySrc}, {"fib", fibSrc}}
	for _, src := range srcs {
		res := rewriteSrc(t, src.name, src.src)
		for _, mode := range AllModes() {
			for _, noBB := range []bool{false, true} {
				name := fmt.Sprintf("%s/%v/nobbcache=%v", src.name, mode, noBB)
				for _, width := range []int{1, 2} {
					s := runPipe(t, res, mode, func(c *Config) {
						c.NoBlockCache, c.IssueWidth = noBB, width
					}).Stats
					sum := s.Instructions + s.FetchStall + s.MemStall + s.ExecStall + s.ControlStall
					switch {
					case s.DRCStall > s.ControlStall:
						t.Errorf("%s width %d: drc stall %d exceeds control stall %d",
							name, width, s.DRCStall, s.ControlStall)
					case width == 1 && s.Cycles != sum:
						t.Errorf("%s: cycles %d != instructions+stalls %d", name, s.Cycles, sum)
					case width > 1 && (s.Cycles > sum || s.Cycles < s.Instructions/uint64(width)):
						t.Errorf("%s width %d: cycles %d outside [%d, %d]",
							name, width, s.Cycles, s.Instructions/uint64(width), sum)
					}
				}
			}
		}
	}
}

// retPeekSrc explicitly loads its own call-pushed return-address slot
// before returning, so under VCFR every call of peek makes one
// auto-de-randomized stack load.
const retPeekSrc = `
.entry main
main:
	movi r8, 40
loop:
	cmpi r8, 0
	je done
	call peek
	subi r8, 1
	jmp loop
done:
	movi r1, 0
	sys 0
.func peek
peek:
	load r1, [sp]
	ret
`

// TestDerandLoadConservesCycles holds the width-1 cycle identity on the
// auto-de-randomized stack-load path, direct and block-cached: the DRC
// lookup's stall is charged to ControlStall as well as DRCStall, and the
// lookup is keyed by the randomized return address the load translated,
// not by the stack address it was loaded from.
func TestDerandLoadConservesCycles(t *testing.T) {
	res := rewriteSrc(t, "retpeek", retPeekSrc)
	for _, noBB := range []bool{false, true} {
		cfg := DefaultConfig(ModeVCFR)
		cfg.NoBlockCache = noBB
		img, trans, randRA := ModeVCFR.Deploy(res)
		p, err := New(img, cfg, trans, randRA)
		if err != nil {
			t.Fatal(err)
		}
		out, err := p.Run(0)
		if err != nil {
			t.Fatal(err)
		}
		s := out.Stats
		if out.DRC.DerandLookups < 40 {
			t.Fatalf("nobbcache=%v: %d derand lookups, want one per call (40)", noBB, out.DRC.DerandLookups)
		}
		if sum := s.Instructions + s.FetchStall + s.MemStall + s.ExecStall + s.ControlStall; s.Cycles != sum {
			t.Errorf("nobbcache=%v: cycles %d != instructions+stalls %d", noBB, s.Cycles, sum)
		}
		if s.DRCStall > s.ControlStall {
			t.Errorf("nobbcache=%v: drc stall %d exceeds control stall %d", noBB, s.DRCStall, s.ControlStall)
		}
		keyed := false
		for _, r := range randRA {
			if _, hit := p.drc.probe(lookupDerand, r); hit {
				keyed = true
			}
		}
		if !keyed {
			t.Errorf("nobbcache=%v: no derand DRC entry is keyed by a randomized return address", noBB)
		}
	}
}

func TestPipelineRunRespectsInstructionBudget(t *testing.T) {
	res := rewriteSrc(t, "fib", fibSrc)
	p, err := New(res.Orig, DefaultConfig(ModeBaseline), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats.Instructions != 10 {
		t.Errorf("instructions = %d, want 10", out.Stats.Instructions)
	}
	if out.Halted {
		t.Error("halted inside budget")
	}
}

func TestPipelineGetcharInput(t *testing.T) {
	src := `
.entry main
main:
	sys 2
	cmpi r0, -1
	je done
	mov r1, r0
	sys 1
	jmp main
done:
	movi r1, 0
	sys 0
`
	res := rewriteSrc(t, "echo", src)
	p, err := New(res.VCFR, DefaultConfig(ModeVCFR), res.Tables, res.RandRA)
	if err != nil {
		t.Fatal(err)
	}
	p.SetInput([]byte("pipeline"))
	out, err := p.Run(0)
	if err != nil {
		t.Fatal(err)
	}
	if string(out.Out) != "pipeline" {
		t.Errorf("out = %q", out.Out)
	}
}

func TestModeStringNames(t *testing.T) {
	for m, want := range map[Mode]string{
		ModeBaseline: "baseline", ModeNaiveILR: "naive-ilr",
		ModeVCFR: "vcfr",
	} {
		if got := m.String(); got != want {
			t.Errorf("String = %q, want %q", got, want)
		}
	}
	if !strings.Contains(Mode(77).String(), "77") {
		t.Error("unknown mode string")
	}
}

func BenchmarkPipelineBaselineStep(b *testing.B) {
	img := asm.MustAssemble("bench", fibSrc)
	p, err := New(img, DefaultConfig(ModeBaseline), nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		running, err := p.Step()
		if err != nil {
			b.Fatal(err)
		}
		if !running {
			p, _ = New(img, DefaultConfig(ModeBaseline), nil, nil)
		}
	}
}

func BenchmarkPipelineVCFRStep(b *testing.B) {
	img := asm.MustAssemble("bench", fibSrc)
	res, err := ilr.Rewrite(img, ilr.Options{Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	p, err := New(res.VCFR, DefaultConfig(ModeVCFR), res.Tables, res.RandRA)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		running, err := p.Step()
		if err != nil {
			b.Fatal(err)
		}
		if !running {
			p, _ = New(res.VCFR, DefaultConfig(ModeVCFR), res.Tables, res.RandRA)
		}
	}
}

// TestParseModes pins the mode vocabulary shared by every CLI flag and
// request field.
func TestParseModes(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want []Mode
	}{
		{"", AllModes()},
		{"all", AllModes()},
		{"baseline", []Mode{ModeBaseline}},
		{"naive", []Mode{ModeNaiveILR}},
		{"vcfr", []Mode{ModeVCFR}},
	} {
		got, err := ParseModes(tc.in)
		if err != nil || len(got) != len(tc.want) {
			t.Fatalf("ParseModes(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		for i := range got {
			if got[i] != tc.want[i] {
				t.Errorf("ParseModes(%q)[%d] = %v, want %v", tc.in, i, got[i], tc.want[i])
			}
		}
	}
	if _, err := ParseModes("bogus"); err == nil {
		t.Error("ParseModes(bogus) accepted")
	}
}
