package harness

import (
	"context"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"vcfr/internal/gadget"
	"vcfr/internal/ilr"
)

// Entropy quantifies the Sec. V-C(a) discussion: how hard is it for an
// attacker to *guess* a usable address in the randomized space? For several
// scatter spreads it reports the placement entropy, the density of valid
// instruction starts inside the randomized range, the measured hit rate of
// uniform random guessing (a Monte-Carlo attacker with a seeded generator),
// and the expected number of guesses before the first hit — each failed
// guess being a crash that, under re-randomization, also resets the layout.
// Each spread is one cell ("<app>/spread-N"), so the four layouts
// randomize and simulate concurrently.
func Entropy(s *Sweep, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	name := "h264ref"
	if ns := cfg.names(nil); len(ns) > 0 {
		name = ns[0]
	}
	t := &Table{
		ID:    "entropy",
		Title: "Guessing attacks vs scatter spread (" + name + ")",
		Columns: []string{"spread", "entropy-bits", "range-MiB", "valid-density",
			"guess-hit-rate", "expected-guesses"},
	}
	var labels []string
	for _, spread := range []int{2, 8, 32, 128} {
		labels = append(labels, name+"/spread-"+strconv.Itoa(spread))
	}
	cells := s.mapCells(cfg, labels,
		func(ctx context.Context, cfg Config, label string) (Cell, error) {
			app := strings.SplitN(label, "/spread-", 2)
			spread, err := strconv.Atoi(app[1])
			if err != nil {
				return Cell{}, err
			}
			prepped, err := s.r.prepareOpts(ctx, app[0], cfg, ilr.Options{Spread: spread})
			if err != nil {
				return Cell{}, err
			}
			lo, hi := prepped.R.Tables.RandRange()
			span := float64(hi - lo)
			valid := float64(prepped.R.Tables.Len())
			density := valid / span

			// Monte-Carlo attacker: uniform guesses inside the known range,
			// from the cell's own derived seed.
			rng := rand.New(rand.NewSource(cfg.Seed))
			hits := 0
			const guesses = 200_000
			for i := 0; i < guesses; i++ {
				g := lo + uint32(rng.Int63n(int64(span)))
				if _, ok := prepped.R.Tables.ToOrig(g); ok {
					hits++
				}
			}
			hitRate := float64(hits) / guesses
			expected := math.Inf(1)
			if hitRate > 0 {
				expected = 1 / hitRate
			}
			return Cell{Rows: [][]string{{
				d(spread),
				f1(prepped.R.Stats.EntropyBits),
				f2(span / (1 << 20)),
				pct(density),
				pct(hitRate),
				f1(expected),
			}}}, nil
		})
	appendCells(t, cells)
	t.Note = "guessing a valid randomized address ~ 1/spread per try, and a *useful* one is far " +
		"rarer; each miss crashes the process, and re-randomization resets the layout (Sec. V-C). " +
		"The paper notes 32-bit spaces bound this entropy (Snow et al.) and 64-bit spaces lift it."
	return t, nil
}

// GadgetGuessing extends Entropy to the attacker's real goal: landing on an
// address that both translates and decodes as a useful gadget. It reports,
// per spread, how many of the attacker's Monte-Carlo guesses would have hit
// any surviving-gadget entry point.
func GadgetGuessing(s *Sweep, cfg Config) (*Table, error) {
	cfg = cfg.withDefaults()
	name := "xalan" // the workload with surviving failover gadgets
	if ns := cfg.names(nil); len(ns) > 0 {
		name = ns[0]
	}
	t := &Table{
		ID:      "gadget-guessing",
		Title:   "Blind gadget guessing over the full 32-bit space (" + name + ")",
		Columns: []string{"surviving-gadgets", "guesses", "hits", "hit-rate"},
		Note: "surviving gadget entry points are a ~10^-5 sliver of the space; " +
			"every wrong guess is a fault the defender can observe",
	}
	cells := s.mapCells(cfg, []string{name},
		func(ctx context.Context, cfg Config, name string) (Cell, error) {
			app, err := s.r.Prepare(ctx, name, cfg)
			if err != nil {
				return Cell{}, err
			}
			pool := gadget.Scan(app.R.Orig, gadget.DefaultMaxInsts)
			surv := gadget.Survivors(pool, app.R.Tables)
			survivors := make(map[uint32]bool, len(surv))
			for _, g := range surv {
				survivors[g.Addr] = true
			}
			rng := rand.New(rand.NewSource(cfg.Seed))
			const guesses = 500_000
			hits := 0
			for i := 0; i < guesses; i++ {
				if survivors[rng.Uint32()] {
					hits++
				}
			}
			return Cell{Rows: [][]string{{
				d(len(surv)), d(guesses), d(hits),
				pct(float64(hits) / guesses),
			}}}, nil
		})
	appendCells(t, cells)
	return t, nil
}
