package fault

import (
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/emu"
	"vcfr/internal/harness"
	"vcfr/internal/isa"
)

// noBlockCache turns the block cache off, so every instruction takes the
// per-instruction Step path.
func noBlockCache(cfg *cpu.Config) { cfg.NoBlockCache = true }

// armedFromZero is the injection path runArmedAt replaced, kept as its
// reference: a pipeline without a block cache, the injector armed from
// instruction 0, run to the budget.
func armedFromZero(t *testing.T, c *cell, f Fault) (cpu.Result, error) {
	t.Helper()
	p, _, err := c.app.Pipeline(c.mode, noBlockCache)
	if err != nil {
		t.Fatal(err)
	}
	p.SetInjector(NewInjector(f).Hooks())
	return p.RunContext(context.Background(), c.ref.Budget())
}

// TestArmedAtMatchesArmedFromZero locks the windowed injection to the
// per-instruction path it replaced: for every canonical cell and kind, on
// the planned faults plus opcode at index 0 and each kind's last
// candidate, both paths must classify alike and return deep-equal Results
// (stats, cache/DRC/DRAM stats, output, exit code). It also checks that the
// run goes back to the block cache after the armed instruction.
func TestArmedAtMatchesArmedFromZero(t *testing.T) {
	cfg := Config{}.withDefaults()
	cells := prepareCells(context.Background(), harness.NewRunner(0), cfg)
	for _, c := range cells {
		if c.err != nil {
			t.Fatalf("%s/%s: %v", c.workload, c.mode, c.err)
		}
	}
	_, tasks := plan(cfg, cells)
	faults := make(map[*cell][]Fault)
	for _, tk := range tasks {
		faults[tk.cell] = append(faults[tk.cell], tk.fault)
	}
	for _, c := range cells {
		for ki, k := range c.kinds {
			cands := c.cands[ki]
			if len(cands) == 0 {
				continue
			}
			faults[c] = append(faults[c], Fault{Kind: k, Index: cands[len(cands)-1], Bits: 1, Seed: 1})
			if k == KindOpcode {
				faults[c] = append(faults[c], Fault{Kind: k, Index: 0, Bits: 1, Seed: 1})
			}
		}
	}
	for _, c := range cells {
		t.Run(fmt.Sprintf("%s/%s", c.workload, c.mode), func(t *testing.T) {
			t.Parallel()
			ctx := context.Background()
			for _, f := range faults[c] {
				want, wantErr := armedFromZero(t, c, f)

				// The block-cache activity of the run up to f.Index alone.
				var prefix cpu.BlockCacheStats
				if f.Index > 0 {
					p, _, err := c.app.Pipeline(c.mode, nil)
					if err != nil {
						t.Fatal(err)
					}
					if _, err := p.RunContext(ctx, f.Index); err != nil {
						t.Fatal(err)
					}
					prefix = p.BlockCacheStats()
				}

				p, _, err := c.app.Pipeline(c.mode, nil)
				if err != nil {
					t.Fatal(err)
				}
				got, gotErr := runArmedAt(ctx, p, f, c.ref.Budget())
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Errorf("%+v: error %v, armed from 0 gives %v", f, gotErr, wantErr)
				}
				if o, w := Classify(got, gotErr, c.ref), Classify(want, wantErr, c.ref); o != w {
					t.Errorf("%+v: outcome %s, armed from 0 gives %s", f, o, w)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%+v: Result differs from armed from 0:\n got %+v\nwant %+v", f, got.Stats, want.Stats)
				}
				// The disarm flushed the cache, so any instruction after
				// the armed one must come from a freshly decoded block.
				if got.Stats.Instructions > f.Index+1 && p.BlockCacheStats().Blocks <= prefix.Blocks {
					t.Errorf("%+v: ran %d instructions past the armed one without the block cache",
						f, got.Stats.Instructions-f.Index-1)
				}
			}
		})
	}
}

// TestReferenceCandidatesMatchStepOracle checks the candidate lists the
// block-cached reference records against an independent observer: an
// Outcome hook on a pipeline without a block cache, armed from
// instruction 0, that sees each instruction's sequence number, class and
// taken flag. The oracle run must also end in the same Reference state.
func TestReferenceCandidatesMatchStepOracle(t *testing.T) {
	for _, cfg := range []Config{{}, {Workloads: []string{"elf-dispatch"}, Seed: 7}} {
		cfg = cfg.withDefaults()
		for _, c := range prepareCells(context.Background(), harness.NewRunner(0), cfg) {
			if c.err != nil {
				t.Fatalf("%s/%s: %v", c.workload, c.mode, c.err)
			}
			p, _, err := c.app.Pipeline(c.mode, noBlockCache)
			if err != nil {
				t.Fatal(err)
			}
			type step struct {
				seq   uint64
				class isa.Class
				taken bool
			}
			var steps []step
			p.SetInjector(&cpu.InjectHooks{Outcome: func(seq uint64, in isa.Inst, out *emu.Outcome) {
				steps = append(steps, step{seq, in.Class(), out.Taken})
			}})
			res, err := p.RunContext(context.Background(), cfg.MaxInsts)
			if err != nil {
				t.Fatalf("%s/%s: oracle run: %v", c.workload, c.mode, err)
			}
			ref := Reference{Insts: res.Stats.Instructions, Halted: res.Halted, ExitCode: res.ExitCode, Out: res.Out}
			if !reflect.DeepEqual(ref, c.ref) {
				t.Errorf("%s/%s: reference %+v, oracle run ends in %+v", c.workload, c.mode, c.ref, ref)
			}
			for ki, k := range c.kinds {
				var want []uint64
				for _, s := range steps {
					if k.matches(s.class, s.taken) {
						want = append(want, s.seq)
					}
				}
				if !slices.Equal(c.cands[ki], want) {
					t.Errorf("%s/%s/%s: %d candidates, oracle finds %d (or they differ)",
						c.workload, c.mode, k, len(c.cands[ki]), len(want))
				}
			}
		}
	}
}
