package ilr

import (
	"fmt"
	"reflect"
	"testing"

	"vcfr/internal/cfg"
	"vcfr/internal/workloads"
)

// TestRerandomizeLayoutsDisjoint pins the property the periodic defense
// relies on: two rewrites of the same program under different seeds place
// almost every instruction at a different randomized address, and each epoch
// independently clears the entropy floor the paper's security argument
// needs. A re-randomization that mostly reproduced the old layout would let
// stale disclosures keep working.
func TestRerandomizeLayoutsDisjoint(t *testing.T) {
	cases := []struct {
		workload   string
		seedA      int64
		seedB      int64
		maxOverlap float64 // fraction of instructions allowed to keep their slot
		minEntropy float64 // bits; floor for both epochs
	}{
		{"bzip2", 1, 2, 0.02, 10},
		{"bzip2", 42, 43, 0.02, 10},
		{"sjeng", 7, 1007, 0.02, 10},
		{"xalan", 99, 100, 0.02, 10},
	}
	for _, tc := range cases {
		w, err := workloads.ByName(tc.workload, 1)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Rewrite(w.Img, Options{Seed: tc.seedA})
		if err != nil {
			t.Fatal(err)
		}
		b, err := a.Rerandomize(tc.seedB)
		if err != nil {
			t.Fatal(err)
		}
		if got := a.Stats.EntropyBits; got < tc.minEntropy {
			t.Errorf("%s seed %d: entropy %.1f bits below floor %.1f",
				tc.workload, tc.seedA, got, tc.minEntropy)
		}
		if got := b.Stats.EntropyBits; got < tc.minEntropy {
			t.Errorf("%s seed %d: entropy %.1f bits below floor %.1f",
				tc.workload, tc.seedB, got, tc.minEntropy)
		}
		origs := a.Tables.OrigAddrs()
		same := 0
		for _, o := range origs {
			ra, oka := a.Tables.ToRand(o)
			rb, okb := b.Tables.ToRand(o)
			if !oka || !okb {
				t.Fatalf("%s: instruction %#x missing from an epoch's tables", tc.workload, o)
			}
			if ra == rb {
				same++
			}
		}
		if frac := float64(same) / float64(len(origs)); frac > tc.maxOverlap {
			t.Errorf("%s seeds %d/%d: %.1f%% of %d instructions kept their slot (max %.1f%%)",
				tc.workload, tc.seedA, tc.seedB, 100*frac, len(origs), 100*tc.maxOverlap)
		}
	}
}

// TestRerandomizeTablesConsistentAfterSwap walks a chain of mid-run swaps
// and checks each epoch's tables stay internally consistent — the invariants
// the pipeline's resolveTarget/storageAddr depend on — and that old-epoch
// randomized addresses go dead: almost none survive into the next epoch's
// mapping, and every one that does not is prohibited as a control-transfer
// target (default-deny).
func TestRerandomizeTablesConsistentAfterSwap(t *testing.T) {
	w, err := workloads.ByName("sjeng", 1)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := Rewrite(w.Img, Options{Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	wantOrigs := cur.Tables.OrigAddrs()
	for epoch := 0; epoch < 4; epoch++ {
		next, err := cur.Rerandomize(int64(100 + epoch))
		if err != nil {
			t.Fatalf("epoch %d: %v", epoch, err)
		}
		nt := next.Tables

		// Bijection: every original instruction maps, round-trips, and the
		// instruction set is exactly the one the first epoch had.
		origs := nt.OrigAddrs()
		if len(origs) != len(wantOrigs) {
			t.Fatalf("epoch %d: %d instructions, first epoch had %d",
				epoch, len(origs), len(wantOrigs))
		}
		lo, hi := nt.RandRange()
		for i, o := range origs {
			if o != wantOrigs[i] {
				t.Fatalf("epoch %d: instruction set diverged at %#x vs %#x", epoch, o, wantOrigs[i])
			}
			r, ok := nt.ToRand(o)
			if !ok {
				t.Fatalf("epoch %d: %#x unmapped", epoch, o)
			}
			back, ok := nt.ToOrig(r)
			if !ok || back != o {
				t.Fatalf("epoch %d: round trip %#x -> %#x -> %#x,%v", epoch, o, r, back, ok)
			}
			if r < lo || r >= hi {
				t.Fatalf("epoch %d: %#x outside RandRange [%#x,%#x)", epoch, r, lo, hi)
			}
			// A randomized instruction's original home must be prohibited
			// unless it is an explicitly allowed failover target.
			if !nt.Prohibited(o) && nt.AllowedUnrand() == 0 {
				t.Fatalf("epoch %d: %#x reachable without a failover entry", epoch, o)
			}
		}
		if nt.Len() != len(origs) {
			t.Fatalf("epoch %d: Len %d != %d origs", epoch, nt.Len(), len(origs))
		}

		// Stale-leak death: an old-epoch randomized address survives only by
		// coincidental reuse, and when unmapped it must be prohibited.
		reused := 0
		for _, o := range wantOrigs {
			oldR, _ := cur.Tables.ToRand(o)
			if _, ok := nt.ToOrig(oldR); ok {
				reused++
				continue
			}
			if !nt.Prohibited(oldR) {
				t.Fatalf("epoch %d: stale address %#x not prohibited", epoch, oldR)
			}
		}
		if frac := float64(reused) / float64(len(wantOrigs)); frac > 0.10 {
			t.Fatalf("epoch %d: %.1f%% of old randomized addresses still map", epoch, 100*frac)
		}
		cur = next
	}
}

// TestRerandomizeMatchesRewrite pins the CFG reuse behind Rerandomize: an
// epoch derived from an earlier Result is the same artifact set a fresh
// Rewrite of the original image with the new seed produces — tables,
// VCFR and scattered images, randomized return addresses and stats — and
// the shared graph is still exactly the recovered CFG after a chain of
// epochs has been built from it.
func TestRerandomizeMatchesRewrite(t *testing.T) {
	cases := []struct {
		workload string
		opts     Options
	}{
		{"bzip2", Options{Seed: 1}},
		{"sjeng", Options{Seed: 42, Spread: 8}},
		{"xalan", Options{Seed: 7, RetRand: RetRandSoftware}},
		{"gcc", Options{Seed: 3, PageConfined: true}},
	}
	for _, tc := range cases {
		w, err := workloads.ByName(tc.workload, 1)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Rewrite(w.Img, tc.opts)
		if err != nil {
			t.Fatal(err)
		}
		snapshot, err := cfg.Build(a.Orig)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(snapshot, a.Graph) {
			t.Fatalf("%s: Rewrite's graph differs from a fresh cfg.Build", tc.workload)
		}
		cur := a
		for epoch, seed := range []int64{tc.opts.Seed + 1, 1000, -5} {
			got, err := cur.Rerandomize(seed)
			if err != nil {
				t.Fatalf("%s epoch %d: %v", tc.workload, epoch, err)
			}
			opts := a.Opts
			opts.Seed = seed
			want, err := Rewrite(a.Orig, opts)
			if err != nil {
				t.Fatal(err)
			}
			where := fmt.Sprintf("%s epoch %d (seed %d)", tc.workload, epoch, seed)
			if got.Graph != a.Graph {
				t.Errorf("%s: epoch recovered a new CFG instead of sharing the first", where)
			}
			if got.Orig != a.Orig || got.Opts != want.Opts {
				t.Errorf("%s: Orig/Opts differ from a fresh Rewrite", where)
			}
			if !reflect.DeepEqual(got.Tables, want.Tables) {
				t.Errorf("%s: tables differ from a fresh Rewrite", where)
			}
			if !reflect.DeepEqual(got.VCFR, want.VCFR) {
				t.Errorf("%s: VCFR image differs from a fresh Rewrite", where)
			}
			if !reflect.DeepEqual(got.Scattered, want.Scattered) {
				t.Errorf("%s: scattered image differs from a fresh Rewrite", where)
			}
			if !reflect.DeepEqual(got.RandRA, want.RandRA) {
				t.Errorf("%s: RandRA differs from a fresh Rewrite", where)
			}
			if got.Stats != want.Stats {
				t.Errorf("%s: stats %+v, fresh Rewrite %+v", where, got.Stats, want.Stats)
			}
			cur = got
		}
		if !reflect.DeepEqual(snapshot, a.Graph) {
			t.Errorf("%s: the shared CFG changed across epochs", tc.workload)
		}
	}
}
