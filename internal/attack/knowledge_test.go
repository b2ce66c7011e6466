package attack

import (
	"math/rand"
	"reflect"
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/harness"
	"vcfr/internal/isa"
	"vcfr/internal/results"
)

// poolWalk is the result of walking one disclosure arm op by op.
type poolWalk struct {
	builds   int  // pool builds checked
	largest  int  // largest pool seen
	differed bool // some build's view scan differed from the unchecked filter
}

// walkPools drives one disclosure arm the way runDisclosure does — victim
// advance, leak, and (rerand) epoch swaps — and checks at every pool build
// that o.pool() deep-equals o.viewScan(), the direct scan of the attacker's
// view that defines what the pool must hold. poke, if non-nil, runs once
// before the first op; after it the victim may fault, which the walk
// tolerates.
func walkPools(t *testing.T, o *oracle, cfg Config, workload string, mode cpu.Mode, rerand bool, poke func(*oracle)) poolWalk {
	t.Helper()
	var w poolWalk
	if poke != nil {
		poke(o)
	}
	var ran uint64
	epochs := 0
	for op := 1; op <= cfg.maxLeaksFor(o.universe()); op++ {
		if rerand && op > 1 && (op-1)%cfg.RerandEvery == 0 {
			epochs++
			next, err := o.res.Rerandomize(epochSeed(cfg.Seed, workload, mode, PayloadPrint, epochs))
			if err != nil {
				t.Fatal(err)
			}
			if err := o.applyEpoch(next); err != nil {
				t.Fatal(err)
			}
		}
		ran += cfg.AdvanceInsts
		if _, err := o.victim.Run(ran); err != nil && poke == nil {
			t.Fatalf("op %d: victim faulted: %v", op, err)
		}
		if !o.leak() {
			if !rerand {
				break
			}
			continue
		}
		if !o.grew {
			continue
		}
		o.grew = false
		want := o.viewScan()
		got := o.pool()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("op %d: pool has %d gadgets, view scan %d", op, len(got), len(want))
		}
		if o.diverged {
			o.diverged = false
			if !reflect.DeepEqual(o.pool(), want) {
				w.differed = true
			}
			o.diverged = true
		}
		w.builds++
		if len(want) > w.largest {
			w.largest = len(want)
		}
	}
	return w
}

func prepareAttacked(t *testing.T, cfg Config, workload string) *harness.App {
	t.Helper()
	app, err := harness.Prepare(workload, harness.Config{
		Scale: cfg.Scale, Spread: cfg.Spread,
		Seed: harness.CellSeed(cfg.Seed, "attacks", workload),
	})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

func newArmOracle(t *testing.T, app *harness.App, cfg Config, workload string, mode cpu.Mode, arm string) *oracle {
	t.Helper()
	rng := rand.New(rand.NewSource(armSeed(cfg.Seed, workload, mode, PayloadPrint, arm)))
	o, err := newOracle(app, sharedFor(app, mode), mode, rng, &results.AttackCounts{})
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// TestOraclePoolMatchesViewScan walks every mode's disclosure arms (plain,
// and rerand where the mode re-randomizes) on the canonical workloads and
// checks at every pool build that the filtered pool equals a direct scan of
// the attacker's view, without the oracle ever falling back to that scan.
// The diverged subtests then rewrite one register operand of a gadget in
// the victim's text before any page leaks, so the leaked bytes no longer
// equal the scanned image: the oracle must notice and scan the view, whose
// result filtering the image scan would not give.
func TestOraclePoolMatchesViewScan(t *testing.T) {
	for _, workload := range harness.CampaignWorkloads() {
		cfg := Config{Workloads: []string{workload}}.withDefaults()
		app := prepareAttacked(t, cfg, workload)
		for _, mode := range cpu.AllModes() {
			for _, rerand := range []bool{false, true} {
				if rerand && mode == cpu.ModeBaseline {
					continue // baseline has no layout to re-randomize
				}
				arm := map[bool]string{false: "plain", true: "rerand"}[rerand]
				t.Run(workload+"/"+mode.String()+"/"+arm, func(t *testing.T) {
					o := newArmOracle(t, app, cfg, workload, mode, arm)
					w := walkPools(t, o, cfg, workload, mode, rerand, nil)
					if o.diverged {
						t.Fatal("an unmodified victim's leaked bytes differ from its image")
					}
					if w.builds == 0 || w.largest == 0 {
						t.Fatalf("%d pool builds checked, largest pool %d; the walk is vacuous",
							w.builds, w.largest)
					}
					t.Logf("%d pool builds checked, largest pool %d", w.builds, w.largest)
				})
			}
		}
	}

	const workload = "sjeng"
	cfg := Config{Workloads: []string{workload}}.withDefaults()
	app := prepareAttacked(t, cfg, workload)
	for _, mode := range cpu.AllModes() {
		t.Run("diverged/"+mode.String(), func(t *testing.T) {
			o := newArmOracle(t, app, cfg, workload, mode, "plain")
			poke := func(o *oracle) {
				// The first gadget whose body starts with a pop: rename the
				// popped register, which keeps the bytes decodable.
				for _, g := range o.scan {
					if len(g.Insts) == 0 || g.Insts[0].Op != isa.OpPop {
						continue
					}
					addr := g.Addr + 1 // the register byte
					if mode == cpu.ModeNaiveILR {
						r, ok := o.res.Tables.ToRand(g.Addr)
						if !ok {
							continue
						}
						addr = r + 1
					}
					mem := o.victim.State().Mem
					mem.SetByte(addr, (mem.ByteAt(addr)+1)%isa.NumRegs)
					o.victim.InvalidateBlocks()
					return
				}
				t.Fatal("no pop gadget to poke")
			}
			w := walkPools(t, o, cfg, workload, mode, false, poke)
			if !o.diverged {
				t.Fatal("the oracle did not notice the rewritten byte")
			}
			if !w.differed {
				t.Fatal("the rewritten byte never changed a pool; the case is vacuous")
			}
		})
	}
}
