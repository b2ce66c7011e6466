package attack

import (
	"context"
	"fmt"

	"vcfr/internal/cpu"
	"vcfr/internal/gadget"
	"vcfr/internal/harness"
)

// buildChain compiles one payload template against a gadget pool.
func buildChain(pool []gadget.Gadget, p Payload) (gadget.Chain, error) {
	switch p {
	case PayloadWrite:
		return gadget.BuildWriteChain(pool, WriteAddr, WriteValue)
	case PayloadExfil:
		return gadget.BuildExfilChain(pool, SecretAddr, len(secret))
	default:
		return gadget.BuildPrintChain(pool, marker)
	}
}

// chainKey fingerprints a chain by its stack words, so a chain that already
// failed is not pointlessly re-fired when the view grows elsewhere.
func chainKey(c gadget.Chain) string {
	return fmt.Sprint(c.Words)
}

// shared is one (workload, mode)'s read-only attack state, derived once per
// prepared app and mode (sharedFor) and shared by every cell, disclosure
// arm and campaign that attacks that app.
type shared struct {
	// pool is the static full-knowledge pool. It is also the scan of the
	// first epoch's image that every oracle pool filters.
	pool []gadget.Gadget
	// origAddrs is Tables.OrigAddrs() under naive ILR: every original
	// instruction start, ascending. The key set never changes across
	// re-randomizations, so it holds for every epoch.
	origAddrs []uint32
}

// sharedKey keys a mode's shared state among the app's derived values.
type sharedKey struct{ mode cpu.Mode }

// sharedFor returns mode's shared state for app, building it from the
// app's first-epoch rewrite on first use. Its pool is what an attacker
// holding the program binary can compile against before leaking anything.
// Under naive ILR the binary still yields every intended-instruction gadget,
// because original addresses stay live (the fetch path translates them) —
// the static phase exists to surface exactly that hole. Every other mode's
// pool is the scan of its deployed image: under baseline simply the
// binary's pool, under VCFR one whose every address requires the randomized
// tag the attacker does not have.
func sharedFor(app *harness.App, mode cpu.Mode) *shared {
	return app.Derived(sharedKey{mode}, func() any {
		if mode == cpu.ModeNaiveILR {
			addrs := app.R.Tables.OrigAddrs()
			return &shared{pool: gadget.ScanAddrs(app.R.Orig, addrs, 0), origAddrs: addrs}
		}
		img, _, _ := mode.Deploy(app.R)
		return &shared{pool: gadget.Scan(img, 0)}
	}).(*shared)
}

// Static is the full-knowledge diagnostic phase of one cell: pool size,
// whether the payload compiled, and what the machine did when the chain was
// fired at the deployment's first epoch.
type Static struct {
	PoolSize int     `json:"pool_size"`
	Built    bool    `json:"built"`
	ChainLen int     `json:"chain_len"` // stack words, when built
	Outcome  Outcome `json:"outcome"`
}

// runStatic executes one cell's full-knowledge phase. The returned error is
// only ever the context's: an unfinished phase must not golden-pin as a
// no-chain result.
func runStatic(ctx context.Context, app *harness.App, sh *shared, mode cpu.Mode, payload Payload, cfg Config, st *Stats) (Static, error) {
	s := Static{PoolSize: len(sh.pool), Outcome: OutcomeNoChain}
	ch, err := buildChain(sh.pool, payload)
	if err != nil {
		return s, nil
	}
	s.Built, s.ChainLen = true, len(ch.Words)
	st.ChainsBuilt++
	o := fire(ctx, app, mode, app.R, ch, payload, cfg.MaxInsts)
	if o == "" {
		return s, harness.NotExecuted(ctx, notRun)
	}
	st.AddFire(o)
	s.Outcome = o
	return s, nil
}
