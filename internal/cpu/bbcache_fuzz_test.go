package cpu_test

import (
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/emu"
	"vcfr/internal/ilr"
	"vcfr/internal/isa"
	"vcfr/internal/program"
	"vcfr/internal/workloads"
)

// FuzzBlockCacheInvalidation drives a block-cached pipeline and a
// per-instruction reference pipeline through a fuzzed schedule of mid-run
// events — code-byte rewrites (the shape of a mid-run re-randomization),
// injector arming/disarming at arbitrary instruction indices, explicit
// invalidations, and uneven run-segment boundaries — and demands identical
// architectural state, identical counters, and identical errors after every
// segment. Any stale cached decode, missed invalidation, or mis-batched
// statistic diverges the pair; so does any state a released pipeline's
// recycled storage carries into its successor.
//
// The script is interpreted as 4-byte records [action, a, b, c]:
//
//	action%7 == 0  run a segment of 1 + (a|b<<8)%6000 instructions
//	action%7 == 1  rewrite the text byte at offset (a|b<<8)%len(text) to c
//	               on both pipelines, then InvalidateBlocks (a re-rand poke)
//	action%7 == 2  arm deterministic injector hooks parameterized by a, b
//	action%7 == 3  disarm the injector
//	action%7 == 4  full mid-run re-randomization: rewrite the program with a
//	               fresh seed derived from a|b<<8 and swap both pipelines
//	               onto the new layout (no-op under baseline mode)
//	action%7 == 5  scheduler context switch: SwitchIn on both pipelines —
//	               the DRC/iTLB flush a multi-tenant cluster charges when a
//	               core changes tenants. The cached pipeline keeps its
//	               memoized blocks and chains across the switch, the direct
//	               one has none: timing and state must still agree exactly.
//	action%7 == 6  release and reacquire: Release the cached pipeline and
//	               build both afresh with New on the current layout, starting
//	               over from the entry point. The cached one most likely gets
//	               its predecessor's recycled storage; the direct one, never
//	               released, always starts on new storage.
func FuzzBlockCacheInvalidation(f *testing.F) {
	f.Add(uint32(300), []byte{0, 100, 10, 0, 1, 40, 0, byte(isa.OpNop), 0, 200, 20, 0})
	f.Add(uint32(301), []byte{0, 0, 4, 0, 2, 7, 3, 0, 0, 0, 8, 0, 3, 0, 0, 0, 0, 0, 40, 0})
	f.Add(uint32(302), []byte{1, 0, 0, 0xff, 0, 50, 0, 0, 1, 1, 0, 0x7f, 0, 50, 0, 0})
	f.Add(uint32(304), []byte{2, 251, 1, 0, 0, 16, 39, 0, 1, 13, 1, 0x55, 0, 232, 3, 0})
	// Re-randomization schedules: swap-then-run, run-swap-run under an armed
	// injector, and a swap racing a text poke.
	f.Add(uint32(301), []byte{4, 1, 0, 0, 0, 100, 10, 0, 4, 2, 0, 0, 0, 200, 20, 0})
	f.Add(uint32(305), []byte{0, 16, 1, 0, 2, 9, 4, 0, 4, 77, 0, 0, 0, 100, 30, 0, 3, 0, 0, 0})
	f.Add(uint32(302), []byte{1, 12, 0, 0x40, 4, 5, 1, 0, 0, 150, 8, 0, 1, 3, 0, 0x11, 0, 90, 2, 0})
	// Context-switch schedules: run-switch-run, a switch racing an armed
	// injector, and a switch back-to-back with a re-randomization swap.
	f.Add(uint32(300), []byte{0, 100, 10, 0, 5, 0, 0, 0, 0, 200, 20, 0})
	f.Add(uint32(304), []byte{2, 17, 2, 0, 0, 60, 5, 0, 5, 0, 0, 0, 0, 90, 1, 0, 3, 0, 0, 0})
	f.Add(uint32(301), []byte{0, 30, 2, 0, 4, 9, 0, 0, 5, 0, 0, 0, 0, 150, 12, 0})
	// Release schedules: run-release-run, and a release after a
	// re-randomization under an armed injector.
	f.Add(uint32(300), []byte{0, 100, 10, 0, 6, 0, 0, 0, 0, 200, 20, 0})
	f.Add(uint32(305), []byte{2, 9, 4, 0, 0, 60, 5, 0, 4, 7, 0, 0, 6, 0, 0, 0, 0, 90, 3, 0})

	f.Fuzz(func(t *testing.T, seed uint32, script []byte) {
		seed = 300 + seed%8 // a small stable pool keeps rewrites cheap
		w := workloads.Random(seed)
		res, err := ilr.Rewrite(w.Img, ilr.Options{Seed: int64(seed)})
		if err != nil {
			t.Fatal(err) // workload generation is deterministic; never fails
		}
		mode := []cpu.Mode{cpu.ModeBaseline, cpu.ModeNaiveILR, cpu.ModeVCFR}[seed%3]
		// build reads res when called, so a rebuild lands on the current
		// layout.
		build := func(noCache bool) *cpu.Pipeline {
			return pipeFor(t, res, mode, w.Input, func(c *cpu.Config) {
				c.SampleEvery = 1531
				c.ContextSwitchEvery = 2753
				c.NoBlockCache = noCache
			})
		}
		cached, direct := build(false), build(true)

		// The executed image: pokes must land on the bytes this mode
		// actually fetches (the scattered/VCFR image, not the original).
		executed := func(r *ilr.Result) *program.Image {
			img, _, _ := mode.Deploy(r)
			return img
		}
		text := executed(res).Seg("text")
		if text == nil || len(text.Data) == 0 {
			t.Skip("no text segment")
		}

		hooks := func(a, b byte) *cpu.InjectHooks {
			mod := uint64(a)%251 + 2
			hit := uint64(b) % mod
			return &cpu.InjectHooks{
				FetchBytes: func(seq uint64, addr uint32, buf []byte) {
					if seq%mod == hit {
						buf[len(buf)-1] ^= 0x01 // beyond most encodings: usually harmless
					}
				},
				Outcome: func(seq uint64, in isa.Inst, out *emu.Outcome) {
					if seq%mod == hit && out.MemKind != emu.MemNone {
						out.MemAddr ^= 4 // perturb the timed DL1 access
					}
				},
			}
		}

		compare := func(stage int) bool {
			t.Helper()
			cs, ds := cached.State(), direct.State()
			if cs.R != ds.R || cs.Z != ds.Z || cs.N != ds.N || cs.C != ds.C || cs.V != ds.V {
				t.Fatalf("record %d: architectural state diverged", stage)
			}
			if cached.PC() != direct.PC() || cs.Halted != ds.Halted {
				t.Fatalf("record %d: pc/halt diverged: %#x/%v vs %#x/%v",
					stage, cached.PC(), cs.Halted, direct.PC(), ds.Halted)
			}
			return !cs.Halted
		}

		var ran uint64
		for rec := 0; rec+4 <= len(script) && ran < 60_000; rec += 4 {
			action, a, b, c := script[rec], script[rec+1], script[rec+2], script[rec+3]
			switch action % 7 {
			case 0:
				ran += 1 + (uint64(a)|uint64(b)<<8)%6000
				cr, cerr := cached.Run(ran)
				dr, derr := direct.Run(ran)
				if (cerr == nil) != (derr == nil) ||
					(cerr != nil && cerr.Error() != derr.Error()) {
					t.Fatalf("record %d: error diverged:\n cached: %v\n direct: %v", rec, cerr, derr)
				}
				diffResults(t, "fuzz segment", cr, dr)
				if cerr != nil || !compare(rec) {
					return
				}
			case 1:
				off := (uint32(a) | uint32(b)<<8) % uint32(len(text.Data))
				cached.State().Mem.SetByte(text.Addr+off, c)
				direct.State().Mem.SetByte(text.Addr+off, c)
				cached.InvalidateBlocks()
				direct.InvalidateBlocks()
			case 2:
				cached.SetInjector(hooks(a, b))
				direct.SetInjector(hooks(a, b))
			case 3:
				cached.SetInjector(nil)
				direct.SetInjector(nil)
			case 4:
				if mode == cpu.ModeBaseline {
					break // baseline has no layout to swap
				}
				next, err := res.Rerandomize(int64(seed)*1000 + int64(uint32(a)|uint32(b)<<8))
				if err != nil {
					t.Fatal(err) // deterministic rewrite; never fails
				}
				img := executed(next)
				if cerr := cached.Rerandomize(next); cerr != nil {
					t.Fatalf("record %d: cached swap: %v", rec, cerr)
				}
				if derr := direct.Rerandomize(next); derr != nil {
					t.Fatalf("record %d: direct swap: %v", rec, derr)
				}
				res = next
				// Pokes must now land on the new epoch's bytes.
				if nt := img.Seg("text"); nt != nil && len(nt.Data) > 0 {
					text = nt
				}
				if !compare(rec) {
					return
				}
			case 5:
				cached.SwitchIn()
				direct.SwitchIn()
			case 6:
				cached.Release()
				cached, direct = build(false), build(true)
				ran = 0
			}
		}
		// Drain to a final common cap so every schedule ends in a compared
		// state even when the script had no trailing run record.
		cr, cerr := cached.Run(ran + 2000)
		dr, derr := direct.Run(ran + 2000)
		if (cerr == nil) != (derr == nil) || (cerr != nil && cerr.Error() != derr.Error()) {
			t.Fatalf("final drain: error diverged:\n cached: %v\n direct: %v", cerr, derr)
		}
		diffResults(t, "final drain", cr, dr)
		compare(len(script))
	})
}
