// Block-cache differential tests: every behavior of the basic-block cache
// is checked against the per-instruction path (Config.NoBlockCache), which
// the lockstep suite already proves equivalent to the golden interpreter.
package cpu_test

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"vcfr/internal/asm"
	"vcfr/internal/cpu"
	"vcfr/internal/harness"
	"vcfr/internal/ilr"
	"vcfr/internal/isa"
	"vcfr/internal/program"
	"vcfr/internal/workloads"
)

// pipeFor builds one pipeline for a rewritten image in the given mode.
func pipeFor(t testing.TB, res *ilr.Result, mode cpu.Mode, input []byte,
	mutate func(*cpu.Config)) *cpu.Pipeline {
	t.Helper()
	cfg := cpu.DefaultConfig(mode)
	if mutate != nil {
		mutate(&cfg)
	}
	img, trans, randRA := mode.Deploy(res)
	p, err := cpu.New(img, cfg, trans, randRA)
	if err != nil {
		t.Fatal(err)
	}
	p.SetInput(input)
	return p
}

// diffResults fails the test when two Results differ, naming the first
// diverging field instead of dumping both structs.
func diffResults(t *testing.T, label string, cached, direct cpu.Result) {
	t.Helper()
	if reflect.DeepEqual(cached, direct) {
		return
	}
	cv, dv := reflect.ValueOf(cached), reflect.ValueOf(direct)
	for i := 0; i < cv.NumField(); i++ {
		if !reflect.DeepEqual(cv.Field(i).Interface(), dv.Field(i).Interface()) {
			t.Errorf("%s: Result.%s diverged\n cached: %+v\n direct: %+v", label,
				cv.Type().Field(i).Name, cv.Field(i).Interface(), dv.Field(i).Interface())
		}
	}
}

// TestBlockCacheResultIdentical sweeps the timing-relevant configuration
// matrix over random workloads and all three modes: the block-cached run's
// full Result (every counter, every cache/DRC/predictor stat, the sampled
// snapshots, program output) must equal the per-instruction path's exactly.
func TestBlockCacheResultIdentical(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*cpu.Config)
	}{
		{"default", nil},
		{"sampled", func(c *cpu.Config) { c.SampleEvery = 1531 }},
		{"ctxswitch", func(c *cpu.Config) { c.ContextSwitchEvery = 2048 }},
		{"sampled-ctxswitch", func(c *cpu.Config) {
			c.SampleEvery = 1531
			c.ContextSwitchEvery = 1531 // coinciding edges
		}},
		{"dual-issue", func(c *cpu.Config) { c.IssueWidth = 2 }},
		{"drc2", func(c *cpu.Config) { c.DRC2Entries = 256 }},
		{"predict-rpc", func(c *cpu.Config) { c.PredictOnRPC = true }},
		{"split-drc", func(c *cpu.Config) { c.DRCSplit = true }},
	}
	for seed := uint32(300); seed < 303; seed++ {
		w := workloads.Random(seed)
		res, err := ilr.Rewrite(w.Img, ilr.Options{Seed: int64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		for _, mode := range []cpu.Mode{cpu.ModeBaseline, cpu.ModeNaiveILR, cpu.ModeVCFR} {
			for _, m := range mutations {
				t.Run(fmt.Sprintf("rand-%d/%v/%s", seed, mode, m.name), func(t *testing.T) {
					const cap = 40_000
					run := func(noCache bool) cpu.Result {
						p := pipeFor(t, res, mode, w.Input, func(c *cpu.Config) {
							if m.mut != nil {
								m.mut(c)
							}
							c.NoBlockCache = noCache
						})
						r, err := p.Run(cap)
						if err != nil {
							t.Fatalf("noCache=%v: %v", noCache, err)
						}
						return r
					}
					diffResults(t, m.name, run(false), run(true))
				})
			}
		}
	}
}

// selfModifySrc prints a character, then bumps the immediate byte inside
// the printing instruction itself — classic self-modifying code. A stale
// cached decode prints "AAAA"; correct invalidation prints "ABCD".
const selfModifySrc = `
	.entry main
	.text 0x1000
main:
	movi r5, 4
loop:
patch:
	movi r1, 65          ; the patched instruction; imm32 starts at patch+2
	sys 1                ; putchar(r1)
	movi r3, patch
	loadb r4, [r3+2]
	addi r4, 1
	storeb [r3+2], r4    ; 'A' -> 'B' -> 'C' -> 'D'
	subi r5, 1
	cmpi r5, 0
	jg loop
	movi r1, 0
	sys 0
`

// TestBlockCacheSelfModify proves the store watch: a program that rewrites
// an instruction it is about to re-execute must see its own writes, block
// cache or not.
func TestBlockCacheSelfModify(t *testing.T) {
	img, err := asm.Assemble("selfmod", selfModifySrc)
	if err != nil {
		t.Fatal(err)
	}
	run := func(noCache bool) cpu.Result {
		cfg := cpu.DefaultConfig(cpu.ModeBaseline)
		cfg.NoBlockCache = noCache
		p, err := cpu.New(img, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		r, err := p.Run(10_000)
		if err != nil {
			t.Fatalf("noCache=%v: %v", noCache, err)
		}
		return r
	}
	cached, direct := run(false), run(true)
	if got := string(cached.Out); got != "ABCD" {
		t.Errorf("block-cached self-modifying run printed %q, want %q", got, "ABCD")
	}
	diffResults(t, "selfmod", cached, direct)
}

// chainPatchSrc runs a 64-instruction block A (63 nops, then a byte store:
// exactly the block-size cap, so the store is A's last instruction) that
// falls through into block B, which prints one character. The first three
// laps store into a data page, so A finishes cleanly and chains to B; the
// fourth and fifth laps store 'Z' over the immediate B prints. The flush
// then happens on A's last instruction with a warm A -> B chain in place:
// following that chain would print the stale 'A'.
var chainPatchSrc = `
	.entry main
	.text 0x1000
main:
	movi r5, 5
	movi r3, 0x9000      ; harmless store target, far from any code page
	movi r4, 90          ; 'Z'
	jmp blockA
blockA:
` + strings.Repeat("\tnop\n", 63) + `
	storeb [r3+2], r4    ; 64th instruction: ends A at the cap
blockB:
	movi r1, 65          ; the patched instruction; imm32 starts at blockB+2
	sys 1
	subi r5, 1
	cmpi r5, 2
	jne skip
	movi r3, blockB      ; from the fourth lap on, A patches B
skip:
	cmpi r5, 0
	jg blockA
	movi r1, 0
	sys 0
`

// chainLoopSrc is a two-block loop (test-and-exit, then print-and-jump
// back) whose blocks chain to each other; the print's immediate is what the
// external poke rewrites.
const chainLoopSrc = `
	.entry main
	.text 0x1000
main:
	movi r5, 8
loop:
	cmpi r5, 0
	je done
body:
	movi r1, 65          ; poked: imm32 starts at body+2
	sys 1
	subi r5, 1
	jmp loop
done:
	movi r1, 0
	sys 0
`

// sameState fails the test when two pipelines' architectural state differs.
func sameState(t *testing.T, label string, a, b *cpu.Pipeline) {
	t.Helper()
	as, bs := a.State(), b.State()
	if as.R != bs.R || as.Z != bs.Z || as.N != bs.N || as.C != bs.C || as.V != bs.V ||
		a.PC() != b.PC() || as.Halted != bs.Halted {
		t.Errorf("%s: architectural state diverged: cached pc %#x, direct pc %#x", label, a.PC(), b.PC())
	}
}

// TestBlockChainInvalidation runs block-cached and per-instruction
// pipelines in lockstep through the two ways a chain between cached blocks
// could outlive the code it was built on: a self-modifying store into a
// chained successor, issued by the last instruction of its predecessor,
// and an external poke plus InvalidateBlocks between two run slices that
// re-enter a chained loop (at every slice boundary through the loop). State,
// every statistic and the output must match, and the output must show the
// new bytes.
func TestBlockChainInvalidation(t *testing.T) {
	build := func(t *testing.T, img *program.Image, noCache bool) *cpu.Pipeline {
		cfg := cpu.DefaultConfig(cpu.ModeBaseline)
		cfg.NoBlockCache = noCache
		p, err := cpu.New(img, cfg, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	t.Run("store-into-successor", func(t *testing.T) {
		img, err := asm.Assemble("chainpatch", chainPatchSrc)
		if err != nil {
			t.Fatal(err)
		}
		var res [2]cpu.Result
		var pipes [2]*cpu.Pipeline
		for i, noCache := range []bool{false, true} {
			pipes[i] = build(t, img, noCache)
			if res[i], err = pipes[i].Run(10_000); err != nil {
				t.Fatalf("noCache=%v: %v", noCache, err)
			}
		}
		if got, want := string(res[0].Out), "AAAZZ"; got != want {
			t.Errorf("block-cached run printed %q, want %q", got, want)
		}
		diffResults(t, "store-into-successor", res[0], res[1])
		sameState(t, "store-into-successor", pipes[0], pipes[1])
	})

	t.Run("invalidate-between-slices", func(t *testing.T) {
		img, err := asm.Assemble("chainloop", chainLoopSrc)
		if err != nil {
			t.Fatal(err)
		}
		body, ok := img.Lookup("body")
		if !ok {
			t.Fatal("no body symbol")
		}
		// One lap is six instructions; cut the first slice at every point
		// of laps two to four.
		for cut := uint64(8); cut < 26; cut++ {
			var res [2]cpu.Result
			var pipes [2]*cpu.Pipeline
			for i, noCache := range []bool{false, true} {
				p := build(t, img, noCache)
				if _, err := p.Run(cut); err != nil {
					t.Fatal(err)
				}
				p.State().Mem.SetByte(body+2, 'Y')
				p.InvalidateBlocks()
				if res[i], err = p.Run(10_000); err != nil {
					t.Fatal(err)
				}
				pipes[i] = p
			}
			if out := string(res[0].Out); !strings.HasSuffix(out, "Y") || strings.Count(out, "A")+strings.Count(out, "Y") != 8 {
				t.Errorf("cut %d: block-cached run printed %q, want A's then Y's, 8 in all", cut, out)
			}
			label := fmt.Sprintf("cut %d", cut)
			diffResults(t, label, res[0], res[1])
			sameState(t, label, pipes[0], pipes[1])
		}
	})
}

// TestBlockCacheInjectorBypass proves SetInjector forces the raw-fetch
// path: a FetchBytes hook must observe every single fetch even on code the
// cache already holds, and disarming mid-run must return results to the
// uninjected baseline exactly.
func TestBlockCacheInjectorBypass(t *testing.T) {
	const warm, armed, cap = 5_000, 9_000, 30_000
	w, res := longRunningWorkload(t, 310, armed)
	run := func(noCache bool) (cpu.Result, uint64) {
		p := pipeFor(t, res, cpu.ModeVCFR, w.Input, func(c *cpu.Config) {
			c.NoBlockCache = noCache
		})
		// Warm the cache, then arm hooks, then disarm and finish.
		if _, err := p.Run(warm); err != nil {
			t.Fatal(err)
		}
		var fetches uint64
		p.SetInjector(&cpu.InjectHooks{
			FetchBytes: func(seq uint64, addr uint32, buf []byte) { fetches++ },
		})
		if _, err := p.Run(armed); err != nil {
			t.Fatal(err)
		}
		p.SetInjector(nil)
		r, err := p.Run(cap)
		if err != nil {
			t.Fatal(err)
		}
		return r, fetches
	}
	cached, cachedFetches := run(false)
	direct, directFetches := run(true)
	if want := uint64(armed - warm); cachedFetches != want {
		t.Errorf("FetchBytes fired %d times on the block-cached pipeline, want %d (every armed fetch)",
			cachedFetches, want)
	}
	if cachedFetches != directFetches {
		t.Errorf("fetch-hook counts diverge: cached %d, direct %d", cachedFetches, directFetches)
	}
	diffResults(t, "inject", cached, direct)
}

// longRunningWorkload scans random-workload seeds from start for one whose
// baseline run executes at least minInsts instructions, so tests that need
// a mid-run event window don't race the program's natural completion.
func longRunningWorkload(t testing.TB, start uint32, minInsts uint64) (workloads.Workload, *ilr.Result) {
	t.Helper()
	for seed := start; seed < start+50; seed++ {
		w := workloads.Random(seed)
		res, err := ilr.Rewrite(w.Img, ilr.Options{Seed: int64(seed)})
		if err != nil {
			t.Fatal(err)
		}
		p := pipeFor(t, res, cpu.ModeBaseline, w.Input, nil)
		r, err := p.Run(minInsts + 1)
		if err == nil && r.Stats.Instructions > minInsts {
			return w, res
		}
	}
	t.Fatalf("no random workload from seed %d runs %d+ instructions", start, minInsts)
	return workloads.Workload{}, nil
}

// TestBlockCacheExternalPoke proves the documented InvalidateBlocks
// contract: memory mutated from outside the pipeline is picked up once the
// caller invalidates, identically to the per-instruction path.
func TestBlockCacheExternalPoke(t *testing.T) {
	w := workloads.Random(311)
	res, err := ilr.Rewrite(w.Img, ilr.Options{Seed: 311})
	if err != nil {
		t.Fatal(err)
	}
	// Pick an address inside the original text segment and a byte value
	// that decodes (a nop) so the poke changes behavior without faulting.
	text := res.Orig.Seg("text")
	if text == nil {
		t.Fatal("no text segment")
	}
	poke := text.Addr + uint32(len(text.Data))/2
	const seg1, cap = 4_000, 20_000
	run := func(noCache bool) (cpu.Result, error) {
		p := pipeFor(t, res, cpu.ModeBaseline, w.Input, func(c *cpu.Config) {
			c.NoBlockCache = noCache
		})
		if _, err := p.Run(seg1); err != nil {
			return cpu.Result{}, err
		}
		for i := uint32(0); i < 16; i++ {
			p.State().Mem.SetByte(poke+i, byte(isa.OpNop))
		}
		p.InvalidateBlocks()
		return p.Run(cap)
	}
	cached, errC := run(false)
	direct, errD := run(true)
	if (errC == nil) != (errD == nil) || (errC != nil && errC.Error() != errD.Error()) {
		t.Fatalf("error divergence after external poke: cached=%v direct=%v", errC, errD)
	}
	diffResults(t, "poke", cached, direct)
}

// TestBlockCacheStatsCounters sanity-checks the diagnostic counters and the
// disabled-cache zero value.
func TestBlockCacheStatsCounters(t *testing.T) {
	w := workloads.Random(312)
	res, err := ilr.Rewrite(w.Img, ilr.Options{Seed: 312})
	if err != nil {
		t.Fatal(err)
	}
	p := pipeFor(t, res, cpu.ModeBaseline, w.Input, nil)
	if _, err := p.Run(20_000); err != nil {
		t.Fatal(err)
	}
	st := p.BlockCacheStats()
	if st.Blocks == 0 || st.Insts < st.Blocks || st.Hits == 0 {
		t.Errorf("implausible block-cache stats after a hot run: %+v", st)
	}
	flushes := st.Flushes
	p.InvalidateBlocks()
	if got := p.BlockCacheStats().Flushes; got != flushes+1 {
		t.Errorf("InvalidateBlocks: flushes %d, want %d", got, flushes+1)
	}

	off := pipeFor(t, res, cpu.ModeBaseline, w.Input, func(c *cpu.Config) { c.NoBlockCache = true })
	if _, err := off.Run(5_000); err != nil {
		t.Fatal(err)
	}
	if got := off.BlockCacheStats(); got != (cpu.BlockCacheStats{}) {
		t.Errorf("disabled cache reports nonzero stats: %+v", got)
	}
	off.InvalidateBlocks() // must be a no-op, not a panic
}

// TestBlockCacheResumesAtLimit: a run driven in many short RunContext calls
// stops mid-block at every call's limit (and at every cancellation check),
// and each call resumes the block it stopped in instead of decoding a new,
// overlapping one. Stepped and single runs therefore hold the same blocks,
// and their Results are identical.
func TestBlockCacheResumesAtLimit(t *testing.T) {
	app, err := harness.Prepare("libquantum", harness.Config{Scale: 4, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, mode := range cpu.AllModes() {
		t.Run(mode.String(), func(t *testing.T) {
			single := pipeFor(t, app.R, mode, app.W.Input, nil)
			want, err := single.RunContext(ctx, 0)
			if err != nil {
				t.Fatal(err)
			}
			stepped := pipeFor(t, app.R, mode, app.W.Input, nil)
			var got cpu.Result
			for n := uint64(1000); ; n += 1000 {
				if got, err = stepped.RunContext(ctx, n); err != nil {
					t.Fatal(err)
				}
				if got.Halted {
					break
				}
			}
			diffResults(t, "stepped", got, want)
			s, w := stepped.BlockCacheStats(), single.BlockCacheStats()
			if s.Blocks != w.Blocks || s.Insts != w.Insts {
				t.Errorf("stepped run decoded %d blocks / %d insts, single run %d / %d",
					s.Blocks, s.Insts, w.Blocks, w.Insts)
			}
			t.Logf("%d instructions: %d blocks / %d insts decoded", want.Stats.Instructions, w.Blocks, w.Insts)
		})
	}
}
