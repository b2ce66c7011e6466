package workloads

import (
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/emu"
	"vcfr/internal/ilr"
)

// TestRandomProgramsDifferential is the repository's heaviest correctness
// test: for many random structured programs, every execution substrate must
// agree — reference interpreter (native), scattered interpretation,
// emulated-ILR interpretation, VCFR interpretation, and all three
// cycle-level pipeline modes.
func TestRandomProgramsDifferential(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := uint32(0); seed < uint32(seeds); seed++ {
		w := Random(seed)
		res, err := ilr.Rewrite(w.Img, ilr.Options{Seed: int64(seed) + 1})
		if err != nil {
			t.Fatalf("seed %d: Rewrite: %v", seed, err)
		}

		want, err := emu.Run(res.Orig, emu.Config{Mode: emu.ModeNative, MaxSteps: 3_000_000})
		if err != nil {
			t.Fatalf("seed %d: native: %v", seed, err)
		}
		if len(want.Out) == 0 {
			t.Fatalf("seed %d: empty output", seed)
		}

		check := func(label string, out []byte, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("seed %d: %s: %v", seed, label, err)
			}
			if string(out) != string(want.Out) {
				t.Fatalf("seed %d: %s output %q != native %q", seed, label, out, want.Out)
			}
		}

		r, err := emu.Run(res.Scattered, emu.Config{
			Mode: emu.ModeScattered, Trans: res.Tables, MaxSteps: 3_000_000})
		check("scattered-emu", r.Out, err)
		r, err = emu.Run(res.Scattered, emu.Config{
			Mode: emu.ModeEmulatedILR, Trans: res.Tables, MaxSteps: 3_000_000})
		check("emulated-ilr", r.Out, err)
		r, err = emu.Run(res.VCFR, emu.Config{
			Mode: emu.ModeVCFR, Trans: res.Tables, RandRA: res.RandRA, MaxSteps: 3_000_000})
		check("vcfr-emu", r.Out, err)

		for _, mode := range []cpu.Mode{cpu.ModeBaseline, cpu.ModeNaiveILR, cpu.ModeVCFR} {
			img, trans, randRA := mode.Deploy(res)
			p, err := cpu.New(img, cpu.DefaultConfig(mode), trans, randRA)
			if err != nil {
				t.Fatalf("seed %d: %v: %v", seed, mode, err)
			}
			out, err := p.Run(3_000_000)
			check("pipeline-"+mode.String(), out.Out, err)
		}
	}
}

// TestRandomProgramsDeterministic: the generator is seed-stable.
func TestRandomProgramsDeterministic(t *testing.T) {
	a := Random(7)
	b := Random(7)
	if string(a.Img.Text().Data) != string(b.Img.Text().Data) {
		t.Error("Random(7) differs between calls")
	}
	c := Random(8)
	if string(a.Img.Text().Data) == string(c.Img.Text().Data) {
		t.Error("different seeds produced identical programs")
	}
}
