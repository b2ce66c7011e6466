package attack

import (
	"context"
	"fmt"
	"sync"

	"vcfr/internal/cpu"
	"vcfr/internal/gadget"
	"vcfr/internal/harness"
	"vcfr/internal/ilr"
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

// staticPool is the full-knowledge gadget view of one mode: what an
// attacker holding the program binary can compile against before leaking
// anything. Under baseline that is simply the binary's pool. Under naive
// ILR the binary still yields every intended-instruction gadget, because
// original addresses stay live (the fetch path translates them) — the
// static phase exists to surface exactly that hole. Under VCFR the pool is
// scanned from the deployed image, but every address it names requires the
// randomized tag the attacker does not have. origAddrs, the ascending
// original instruction starts, is read only under naive ILR.
func staticPool(res *ilr.Result, mode cpu.Mode, origAddrs []uint32) []gadget.Gadget {
	switch mode {
	case cpu.ModeNaiveILR:
		return gadget.ScanAddrs(res.Orig, origAddrs, 0)
	case cpu.ModeVCFR:
		return gadget.Scan(res.VCFR, 0)
	default:
		return gadget.Scan(res.Orig, 0)
	}
}

// shared is one (workload, mode)'s read-only attack state. A campaign
// builds it once, on first use, and shares it across the mode's payload
// cells and both disclosure arms of each.
type shared struct {
	once sync.Once
	// pool is the static full-knowledge pool. It is also the scan of the
	// first epoch's image that every oracle pool filters.
	pool []gadget.Gadget
	// origAddrs is Tables.OrigAddrs() under naive ILR: every original
	// instruction start, ascending. The key set never changes across
	// re-randomizations, so it holds for every epoch.
	origAddrs []uint32
}

// get builds s from the workload's first-epoch rewrite on the first call
// and returns it.
func (s *shared) get(res *ilr.Result, mode cpu.Mode) *shared {
	s.once.Do(func() {
		if mode == cpu.ModeNaiveILR {
			s.origAddrs = res.Tables.OrigAddrs()
		}
		s.pool = staticPool(res, mode, s.origAddrs)
	})
	return s
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
		return s, notExecuted(ctx)
	}
	st.AddFire(o)
	s.Outcome = o
	return s, nil
}
