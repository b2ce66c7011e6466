package cpu_test

import (
	"errors"
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/emu"
	"vcfr/internal/ilr"
	"vcfr/internal/isa"
	"vcfr/internal/workloads"
)

// TestRerandomizePreservesComputation runs each workload to completion twice
// — once untouched, once swapped onto a fresh layout at several mid-run
// points — and demands the same computation: identical output, exit code,
// halt state, and original-space pc. Registers are compared after
// de-randomizing each side through its own final tables, since a register
// legitimately holds an epoch-specific randomized code pointer under VCFR.
func TestRerandomizePreservesComputation(t *testing.T) {
	const cap = 30_000
	for _, mode := range []cpu.Mode{cpu.ModeNaiveILR, cpu.ModeVCFR} {
		for _, name := range []string{"bzip2", "sjeng"} {
			t.Run(mode.String()+"/"+name, func(t *testing.T) {
				w, err := workloads.ByName(name, 1)
				if err != nil {
					t.Fatal(err)
				}
				res, err := ilr.Rewrite(w.Img, ilr.Options{Seed: 7})
				if err != nil {
					t.Fatal(err)
				}
				plain := pipeFor(t, res, mode, w.Input, nil)
				pr, perr := plain.Run(cap)
				if perr != nil {
					t.Fatalf("uninterrupted run: %v", perr)
				}

				swapped := pipeFor(t, res, mode, w.Input, nil)
				cur := res
				var sr cpu.Result
				for i, stop := range []uint64{7_000, 14_000, 21_000, cap} {
					if sr, err = swapped.Run(stop); err != nil {
						t.Fatalf("segment %d: %v", i, err)
					}
					if sr.Halted || stop == cap {
						break
					}
					next, err := cur.Rerandomize(int64(1000 + i))
					if err != nil {
						t.Fatalf("rewriter epoch %d: %v", i, err)
					}
					if err := swapped.Rerandomize(next); err != nil {
						t.Fatalf("swap %d: %v", i, err)
					}
					cur = next
				}

				if string(sr.Out) != string(pr.Out) {
					t.Errorf("output diverged:\n swapped: %q\n plain:   %q", sr.Out, pr.Out)
				}
				if sr.ExitCode != pr.ExitCode || sr.Halted != pr.Halted {
					t.Errorf("exit diverged: %d/%v vs %d/%v",
						sr.ExitCode, sr.Halted, pr.ExitCode, pr.Halted)
				}
				if swapped.PC() != plain.PC() {
					t.Errorf("pc diverged: %#x vs %#x", swapped.PC(), plain.PC())
				}
				ss, ps := swapped.State(), plain.State()
				norm := func(tr *ilr.Tables, v uint32) uint32 {
					if orig, ok := tr.ToOrig(v); ok {
						return orig
					}
					return v
				}
				for i := range ss.R {
					if norm(cur.Tables, ss.R[i]) != norm(res.Tables, ps.R[i]) {
						t.Errorf("r%d diverged: %#x vs %#x (normalized %#x vs %#x)",
							i, ss.R[i], ps.R[i],
							norm(cur.Tables, ss.R[i]), norm(res.Tables, ps.R[i]))
					}
				}
				if sr.Stats.Instructions != pr.Stats.Instructions {
					t.Errorf("instruction count diverged: %d vs %d",
						sr.Stats.Instructions, pr.Stats.Instructions)
				}
			})
		}
	}
}

// TestRerandomizeBaselineErrors pins that a baseline pipeline refuses the
// swap (there is no layout to replace), and that a rewrite missing its tables
// or its image, or no rewrite at all, is refused rather than deployed.
func TestRerandomizeBaselineErrors(t *testing.T) {
	w, err := workloads.ByName("bzip2", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ilr.Rewrite(w.Img, ilr.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p := pipeFor(t, res, cpu.ModeBaseline, w.Input, nil)
	if err := p.Rerandomize(res); err == nil {
		t.Fatal("baseline Rerandomize succeeded")
	}
	vp := pipeFor(t, res, cpu.ModeVCFR, w.Input, nil)
	if err := vp.Rerandomize(&ilr.Result{VCFR: res.VCFR}); err == nil {
		t.Fatal("nil-translator Rerandomize succeeded")
	}
	if err := vp.Rerandomize(nil); err == nil {
		t.Fatal("nil-result Rerandomize succeeded")
	}
	if err := vp.Rerandomize(&ilr.Result{Tables: res.Tables}); err == nil {
		t.Fatal("image-less Rerandomize succeeded")
	}
}

// TestRerandomizeKillsStaleTarget pins the security property the attack
// campaign measures: a control transfer to an old-epoch randomized address
// faults with ErrControlViolation after the swap, because the new tables
// neither de-randomize it nor allow it as a failover target.
func TestRerandomizeKillsStaleTarget(t *testing.T) {
	w, err := workloads.ByName("bzip2", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ilr.Rewrite(w.Img, ilr.Options{Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	next, err := res.Rerandomize(8)
	if err != nil {
		t.Fatal(err)
	}

	// A victim whose first ret is redirected, via injector hooks, to an
	// old-epoch randomized address that the new epoch does not map.
	var stale uint32
	for _, orig := range res.Tables.OrigAddrs() {
		r, _ := res.Tables.ToRand(orig)
		if _, ok := next.Tables.ToOrig(r); !ok {
			stale = r
			break
		}
	}
	if stale == 0 {
		t.Fatal("no stale old-epoch address found (layouts identical?)")
	}

	p := pipeFor(t, res, cpu.ModeVCFR, w.Input, nil)
	if err := p.Rerandomize(next); err != nil {
		t.Fatal(err)
	}
	fired := false
	p.SetInjector(&cpu.InjectHooks{
		Outcome: func(seq uint64, in isa.Inst, out *emu.Outcome) {
			if !fired && in.Class() == isa.ClassRet {
				fired = true
				out.Target = stale
			}
		},
	})
	_, err = p.Run(50_000)
	if !fired {
		t.Fatal("victim never executed a ret")
	}
	if !errors.Is(err, cpu.ErrControlViolation) {
		t.Fatalf("stale old-epoch target survived the swap: err = %v", err)
	}
}
