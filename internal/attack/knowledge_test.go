package attack

import (
	"math/rand"
	"reflect"
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/gadget"
	"vcfr/internal/harness"
)

// TestNaivePoolMatchesFullScan walks naive-ILR disclosure arms op by op —
// leaks, view growth, and (in the rerand arm) epoch swaps — and checks at
// every op that the oracle's pool, which probes only the learned
// instruction starts, equals a full byte-offset scan of the view filtered
// to those starts.
func TestNaivePoolMatchesFullScan(t *testing.T) {
	cfg := Config{Workloads: []string{"sjeng"}}.withDefaults()
	app, err := harness.Prepare("sjeng", harness.Config{
		Scale: cfg.Scale, Spread: cfg.Spread,
		Seed: harness.CellSeed(cfg.Seed, "attacks", "sjeng"),
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, rerand := range []bool{false, true} {
		arm := map[bool]string{false: "plain", true: "rerand"}[rerand]
		rng := rand.New(rand.NewSource(armSeed(cfg.Seed, "sjeng", cpu.ModeNaiveILR, PayloadPrint, arm)))
		o, err := newOracle(app, cpu.ModeNaiveILR, rng, &Stats{})
		if err != nil {
			t.Fatal(err)
		}
		checked, largest := 0, 0
		var ran uint64
		epochs := 0
		for op := 1; op <= cfg.maxLeaksFor(o.universe()); op++ {
			if rerand && op > 1 && (op-1)%cfg.RerandEvery == 0 {
				epochs++
				next, err := o.res.Rerandomize(epochSeed(cfg.Seed, "sjeng", cpu.ModeNaiveILR, PayloadPrint, epochs))
				if err != nil {
					t.Fatal(err)
				}
				if err := o.applyEpoch(next); err != nil {
					t.Fatal(err)
				}
			}
			ran += cfg.AdvanceInsts
			if _, err := o.victim.Run(ran); err != nil {
				t.Fatalf("op %d: victim faulted: %v", op, err)
			}
			if !o.leak() && !rerand {
				break
			}
			if !o.grew {
				continue
			}
			o.grew = false
			var want []gadget.Gadget
			img := viewImage(o.res.Orig.Name, o.viewAddr, o.viewData)
			for _, g := range gadget.Scan(img, 0) {
				if o.intended[g.Addr] {
					want = append(want, g)
				}
			}
			got := o.pool()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("rerand=%v op %d: pool has %d gadgets, filtered full scan %d",
					rerand, op, len(got), len(want))
			}
			checked++
			if len(want) > largest {
				largest = len(want)
			}
		}
		if checked == 0 || largest == 0 {
			t.Fatalf("rerand=%v: %d pool builds checked, largest pool %d; the walk is vacuous",
				rerand, checked, largest)
		}
		t.Logf("rerand=%v: %d pool builds checked, largest pool %d", rerand, checked, largest)
	}
}
