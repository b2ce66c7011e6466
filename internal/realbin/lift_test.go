package realbin

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"strings"
	"testing"

	"vcfr/internal/emu"
	"vcfr/internal/ilr"
	"vcfr/internal/program"
	"vcfr/internal/realbin/fixtures"
	"vcfr/internal/realbin/rvasm"
)

// dispatchExpected reimplements the dispatch fixture's loop in Go (int32
// semantics) so the pinned output is derived, not guessed.
func dispatchExpected() int32 {
	var acc int32
	ops := []func(a, b int32) int32{
		func(a, b int32) int32 { return a + b },
		func(a, b int32) int32 { return a - b },
		func(a, b int32) int32 { return a * b },
		func(a, b int32) int32 { return a ^ b },
		func(a, b int32) int32 { return a + 2*b },
	}
	for i := int32(0); i < 16; i++ {
		acc = ops[i%5](acc, 3*i+1)
	}
	return acc
}

// fixtureWant maps fixture name to the exact expected output. The crc32
// expectation is pinned against Go's hash/crc32 over the same message — if
// the lift mis-translates a single shift or xor, this diverges.
func fixtureWant(t *testing.T, name string) string {
	t.Helper()
	switch name {
	case "elf-fib":
		return "144\n"
	case "elf-crc32":
		return fmt.Sprintf("%d\n", int32(crc32.ChecksumIEEE([]byte(rvasm.CRCMessage))))
	case "elf-dispatch":
		return fmt.Sprintf("%d\n", dispatchExpected())
	default:
		t.Fatalf("no expectation for fixture %q", name)
		return ""
	}
}

func loadFixture(t *testing.T, fx fixtures.Fixture) *Lifted {
	t.Helper()
	lifted, err := Load(fx.Data, fx.Name)
	if err != nil {
		t.Fatalf("Load(%s): %v", fx.Name, err)
	}
	return lifted
}

// TestFixturesRunNative lifts each checked-in fixture and runs it natively:
// the strongest end-to-end evidence the structural lift preserves program
// semantics.
func TestFixturesRunNative(t *testing.T) {
	for _, fx := range fixtures.All() {
		fx := fx
		t.Run(fx.Name, func(t *testing.T) {
			lifted := loadFixture(t, fx)
			res, err := emu.Run(lifted.Img, emu.Config{Mode: emu.ModeNative})
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if res.ExitCode != 0 {
				t.Errorf("exit code = %d, want 0", res.ExitCode)
			}
			if got, want := string(res.Out), fixtureWant(t, fx.Name); got != want {
				t.Errorf("output = %q, want %q", got, want)
			}
		})
	}
}

// TestFixturesAllModes runs every fixture through the full randomization
// stack in all three functional modes; outputs must agree exactly. This is
// the contract the tentpole promises: real binaries flow through the
// *unchanged* cfg → ilr → emu stack.
func TestFixturesAllModes(t *testing.T) {
	for _, fx := range fixtures.All() {
		fx := fx
		t.Run(fx.Name, func(t *testing.T) {
			lifted := loadFixture(t, fx)
			rw, err := ilr.Rewrite(lifted.Img, ilr.Options{Seed: 7, Spread: 8})
			if err != nil {
				t.Fatalf("Rewrite: %v", err)
			}
			want := fixtureWant(t, fx.Name)
			for _, run := range []struct {
				img *program.Image
				cfg emu.Config
			}{
				{rw.Orig, emu.Config{Mode: emu.ModeNative}},
				{rw.VCFR, emu.Config{Mode: emu.ModeVCFR, Trans: rw.Tables, RandRA: rw.RandRA}},
				{rw.Scattered, emu.Config{Mode: emu.ModeEmulatedILR, Trans: rw.Tables}},
			} {
				mode := run.cfg.Mode
				res, err := emu.Run(run.img, run.cfg)
				if err != nil {
					t.Fatalf("Run(%v): %v", mode, err)
				}
				if res.ExitCode != 0 {
					t.Errorf("Run(%v): exit code = %d, want 0", mode, res.ExitCode)
				}
				if string(res.Out) != want {
					t.Errorf("Run(%v): output = %q, want %q", mode, res.Out, want)
				}
			}
		})
	}
}

// TestFixturesRerandomized re-randomizes with fresh seeds; semantics must
// hold under every layout.
func TestFixturesRerandomized(t *testing.T) {
	fx, _ := fixtures.ByName("elf-dispatch")
	lifted := loadFixture(t, fx)
	want := fixtureWant(t, fx.Name)
	rw, err := ilr.Rewrite(lifted.Img, ilr.Options{Seed: 1, Spread: 8})
	if err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	for seed := int64(2); seed <= 5; seed++ {
		rw, err = rw.Rerandomize(seed)
		if err != nil {
			t.Fatalf("Rerandomize(%d): %v", seed, err)
		}
		res, err := emu.Run(rw.VCFR, emu.Config{Mode: emu.ModeVCFR, Trans: rw.Tables, RandRA: rw.RandRA})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if string(res.Out) != want {
			t.Errorf("seed %d: output = %q, want %q", seed, res.Out, want)
		}
	}
}

// TestLiftDeterministic lifts the same bytes twice and requires identical
// images — the property the golden envelope pinning stands on.
func TestLiftDeterministic(t *testing.T) {
	fx, _ := fixtures.ByName("elf-dispatch")
	a := loadFixture(t, fx)
	b := loadFixture(t, fx)
	if a.Report != b.Report {
		t.Errorf("reports differ:\n%+v\n%+v", a.Report, b.Report)
	}
	if len(a.Img.Segments) != len(b.Img.Segments) {
		t.Fatalf("segment counts differ")
	}
	for i := range a.Img.Segments {
		if !bytes.Equal(a.Img.Segments[i].Data, b.Img.Segments[i].Data) {
			t.Errorf("segment %d bytes differ", i)
		}
	}
}

// TestCheckedInFixturesMatchGenerator pins the checked-in binaries to the
// generator output byte for byte.
func TestCheckedInFixturesMatchGenerator(t *testing.T) {
	embedded := map[string][]byte{
		"fib.elf":      fixtures.Fib,
		"crc32.elf":    fixtures.CRC32,
		"dispatch.elf": fixtures.Dispatch,
	}
	for _, gen := range rvasm.Fixtures() {
		if !bytes.Equal(embedded[gen.Name], gen.Data) {
			t.Errorf("%s: checked-in bytes differ from generator output; run `make realbin`", gen.Name)
		}
	}
}

// TestDispatchReport checks the CFG-recovery hardening evidence on the
// dispatch fixture: four ground-truth landing pads, a relocated table slot
// for each, and exactly one scan-only pointer (op_secret).
func TestDispatchReport(t *testing.T) {
	fx, _ := fixtures.ByName("elf-dispatch")
	r := loadFixture(t, fx).Report
	if r.LandingPads != 4 {
		t.Errorf("LandingPads = %d, want 4", r.LandingPads)
	}
	if r.ScanOnlyPtrs != 1 {
		t.Errorf("ScanOnlyPtrs = %d, want 1 (op_secret)", r.ScanOnlyPtrs)
	}
	// 4 grounded table slots + 4 landing-pad table words.
	if r.GroundedPtrs != 8 {
		t.Errorf("GroundedPtrs = %d, want 8", r.GroundedPtrs)
	}
	if r.Blocks == 0 || r.Instructions == 0 || r.VXInstructions < r.Instructions {
		t.Errorf("implausible report: %+v", r)
	}
	if r.RegsMapped != 11 {
		t.Errorf("RegsMapped = %d, want 11", r.RegsMapped)
	}
}

// refuseCase builds a tiny ELF via rvasm and asserts Lift refuses it with a
// diagnostic matching wantSub.
func refuseCase(t *testing.T, wantSub string, build func(a *rvasm.Asm)) {
	t.Helper()
	a := rvasm.New(0x10000)
	a.Fn("_start")
	build(a)
	_, err := Load(a.Emit("_start"), "refuse-case")
	if err == nil {
		t.Fatalf("Load succeeded, want refusal containing %q", wantSub)
	}
	re, ok := err.(*RefuseError)
	if !ok {
		t.Fatalf("error %T (%v), want *RefuseError", err, err)
	}
	if !strings.Contains(re.Error(), wantSub) {
		t.Errorf("refusal %q does not mention %q", re.Error(), wantSub)
	}
	if len(re.Funcs()) == 0 {
		t.Errorf("refusal names no functions")
	}
}

// trailingAUIPC builds a binary whose text ends in `auipc a0, 0`, an auipc
// with no successor to pair with, and returns it with the auipc's address.
func trailingAUIPC() ([]byte, uint64) {
	a := rvasm.New(0x10000)
	a.Fn("_start")
	exitCleanly(a)
	at := a.PC()
	a.Fixed(rvasm.EncU(0x17, rvasm.Reg("a0"), 0))
	return a.Emit("_start"), at
}

func exitCleanly(a *rvasm.Asm) {
	a.Li("a0", 0)
	a.Li("a7", 93)
	a.Ecall()
}

func TestRefusals(t *testing.T) {
	t.Run("compressed", func(t *testing.T) {
		refuseCase(t, "compressed", func(a *rvasm.Asm) {
			exitCleanly(a)
			a.Fixed(0x0001_4501) // low half is a C-extension pattern
		})
	})
	t.Run("sp-init", func(t *testing.T) {
		refuseCase(t, "stack-pointer initialization", func(a *rvasm.Asm) {
			a.Li("sp", 1024)
			exitCleanly(a)
		})
	})
	t.Run("unpaired-auipc", func(t *testing.T) {
		refuseCase(t, "unsupported pc-relative idiom", func(a *rvasm.Asm) {
			a.Fixed(rvasm.EncU(0x17, rvasm.Reg("t0"), 0)) // auipc t0, 0
			exitCleanly(a)
		})
	})
	t.Run("trailing-auipc", func(t *testing.T) {
		data, at := trailingAUIPC()
		_, err := Load(data, "trailing-auipc")
		re, ok := err.(*RefuseError)
		if !ok {
			t.Fatalf("error %T (%v), want *RefuseError", err, err)
		}
		for _, r := range re.Refusals {
			if r.Addr == at && strings.Contains(r.Reason, "no pairable successor") {
				return
			}
		}
		t.Errorf("no refusal at the auipc %#x: %v", at, re)
	})
	t.Run("jalr-displacement", func(t *testing.T) {
		refuseCase(t, "displacement", func(a *rvasm.Asm) {
			a.Fixed(rvasm.EncI(0x67, 0, 0, rvasm.Reg("t0"), 8)) // jalr x0, 8(t0)
			exitCleanly(a)
		})
	})
	t.Run("unresolved-ecall", func(t *testing.T) {
		refuseCase(t, "unresolved a7", func(a *rvasm.Asm) {
			a.Ecall() // no dominating li a7
			exitCleanly(a)
		})
	})
	t.Run("shift-64", func(t *testing.T) {
		refuseCase(t, "64-bit value manipulation", func(a *rvasm.Asm) {
			a.Slli("t0", "t0", 33)
			exitCleanly(a)
		})
	})
	t.Run("medlow-lui", func(t *testing.T) {
		refuseCase(t, "medlow", func(a *rvasm.Asm) {
			a.Lui("t0", 0x10) // 0x10000: the text page itself
			exitCleanly(a)
		})
	})
	t.Run("too-many-registers", func(t *testing.T) {
		refuseCase(t, "general registers", func(a *rvasm.Asm) {
			for _, r := range []string{"t0", "t1", "t2", "t3", "t4", "t5", "t6",
				"s0", "s1", "s2", "s3", "s4", "s5"} {
				a.Li(r, 1)
			}
			exitCleanly(a)
		})
	})
	t.Run("multiple-sites-reported", func(t *testing.T) {
		a := rvasm.New(0x10000)
		a.Fn("_start")
		a.Li("sp", 1024)
		a.Slli("t0", "t0", 40)
		exitCleanly(a)
		_, err := Load(a.Emit("_start"), "multi")
		re, ok := err.(*RefuseError)
		if !ok {
			t.Fatalf("error %T, want *RefuseError", err)
		}
		if len(re.Refusals) != 2 {
			t.Errorf("got %d refusals, want 2: %v", len(re.Refusals), re)
		}
	})
}

// TestWrongMachine rejects a non-RISC-V ELF before lifting.
func TestWrongMachine(t *testing.T) {
	a := rvasm.New(0x10000)
	a.Fn("_start")
	exitCleanly(a)
	data := a.Emit("_start")
	data[18] = 0x3e // EM_X86_64
	if _, err := Load(data, "x86"); err == nil ||
		!strings.Contains(err.Error(), "EM_RISCV") {
		t.Errorf("Load = %v, want machine error", err)
	}
}

// TestTotalsAccumulate checks that lifts and refusals land on the stats
// spine counters.
func TestTotalsAccumulate(t *testing.T) {
	before := TotalsSnapshot()
	fx, _ := fixtures.ByName("elf-fib")
	loadFixture(t, fx)
	a := rvasm.New(0x10000)
	a.Fn("_start")
	a.Li("sp", 1024)
	exitCleanly(a)
	if _, err := Load(a.Emit("_start"), "refused"); err == nil {
		t.Fatal("refusal case lifted")
	}
	after := TotalsSnapshot()
	if after.BinariesLifted != before.BinariesLifted+1 {
		t.Errorf("BinariesLifted %d -> %d, want +1", before.BinariesLifted, after.BinariesLifted)
	}
	if after.InstructionsLifted <= before.InstructionsLifted {
		t.Errorf("InstructionsLifted did not advance")
	}
	if after.RefusedBinaries != before.RefusedBinaries+1 {
		t.Errorf("RefusedBinaries %d -> %d, want +1", before.RefusedBinaries, after.RefusedBinaries)
	}
	if after.RefusedFunctions != before.RefusedFunctions+1 {
		t.Errorf("RefusedFunctions %d -> %d, want +1", before.RefusedFunctions, after.RefusedFunctions)
	}
}
