// Package core_test holds the system-level tests of the program-plus-rewrite
// facade, harness.App: one binary runs natively, under software ILR and under
// VCFR with the same output, and an App built from zero options takes the
// harness defaults. The directory has no library code; App lives in
// internal/harness.
package core_test

import (
	"context"
	"testing"

	"vcfr/internal/asm"
	"vcfr/internal/cpu"
	"vcfr/internal/emu"
	"vcfr/internal/harness"
	"vcfr/internal/ilr"
	"vcfr/internal/workloads"
)

const demoSrc = `
.entry main
main:
	movi r1, 9
	call square
	mov r1, r0
	sys 3
	movi r1, 0
	sys 0
.func square
square:
	mov r0, r1
	mul r0, r1
	ret
`

func newApp(t *testing.T, opts ilr.Options) *harness.App {
	t.Helper()
	app, err := harness.NewApp(workloads.Workload{Name: "demo", Img: asm.MustAssemble("demo", demoSrc)}, opts)
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestSystemRunModes runs the program in every functional mode.
func TestSystemRunModes(t *testing.T) {
	app := newApp(t, ilr.Options{Seed: 5})
	for _, mode := range []emu.Mode{emu.ModeNative, emu.ModeScattered, emu.ModeVCFR, emu.ModeEmulatedILR} {
		out, err := app.Emulate(mode, nil, 0)
		if err != nil {
			t.Fatalf("Emulate(%v): %v", mode, err)
		}
		if string(out.Out) != "81" {
			t.Errorf("Emulate(%v) = %q, want 81", mode, out.Out)
		}
	}
	if _, err := app.Emulate(emu.Mode(42), nil, 0); err == nil {
		t.Error("unknown emu mode accepted")
	}
}

// TestSystemSimulate runs the program in every cycle-level mode.
func TestSystemSimulate(t *testing.T) {
	app := newApp(t, ilr.Options{Seed: 5})
	rows, err := app.RunRows(context.Background(), cpu.AllModes(), 0, func(c *cpu.Config) { c.DRCEntries = 64 })
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range rows {
		if string(row.Result.Out) != "81" || row.Result.Stats.Cycles == 0 {
			t.Errorf("%s: output %q in %d cycles", row.Mode, row.Result.Out, row.Result.Stats.Cycles)
		}
		if row.Workload != "demo" || row.Seed != 5 || row.Config.DRCEntries != 64 {
			t.Errorf("%s: row labelled %s seed %d drc %d", row.Mode, row.Workload, row.Seed, row.Config.DRCEntries)
		}
	}
	if rows[2].Result.DRC.Lookups == 0 {
		t.Error("DRC unused under VCFR")
	}
	if _, _, err := app.Run(cpu.Mode(9), 0, nil); err == nil {
		t.Error("unknown cpu mode accepted")
	}
}

// TestSystemImagesDistinct: the randomized images do not share the
// original's layout, and the rewrite reports what it did.
func TestSystemImagesDistinct(t *testing.T) {
	app := newApp(t, ilr.Options{Seed: 5})
	if app.R.Orig == app.R.VCFR {
		t.Error("original and randomized images are the same object")
	}
	if app.R.Scattered.Entry == app.R.Orig.Entry {
		t.Error("scattered entry not randomized")
	}
	if st := app.R.Stats; st.Instructions == 0 || st.TableBytes == 0 {
		t.Errorf("rewrite stats empty: %+v", st)
	}
}

// TestSystemDefaults: zero options take the harness defaults (the layout
// Prepare gives a workload), and rewriter options plumb through.
func TestSystemDefaults(t *testing.T) {
	app := newApp(t, ilr.Options{})
	if app.R.Opts.Seed != 42 || app.R.Opts.Spread != 8 {
		t.Errorf("zero options: seed %d spread %d, want 42 and 8", app.R.Opts.Seed, app.R.Opts.Spread)
	}
	if out, err := app.Emulate(emu.ModeVCFR, nil, 0); err != nil || string(out.Out) != "81" {
		t.Errorf("zero-options run = %q, %v", out.Out, err)
	}
	soft := newApp(t, ilr.Options{RetRand: ilr.RetRandSoftware})
	if soft.R.Opts.RetRand != ilr.RetRandSoftware {
		t.Errorf("ret-rand mode = %v, want software", soft.R.Opts.RetRand)
	}
	if out, err := soft.Emulate(emu.ModeVCFR, nil, 0); err != nil || string(out.Out) != "81" {
		t.Errorf("software ret-rand run = %q, %v", out.Out, err)
	}
}
