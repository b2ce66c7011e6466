// Package attack is the adversary-in-the-loop security evaluation: instead
// of the static entropy argument (internal/gadget counts what a scanner sees)
// or the accidental-fault argument (internal/fault measures detection
// coverage), it simulates a deliberate attacker against live baseline,
// naive-ILR, and VCFR machines and measures the work the attacker must do.
//
// Three cooperating models, composed per campaign cell:
//
//  1. A ROP chain builder (chain.go): given a gadget view, it compiles one of
//     three payload templates — proof-of-control print, write-what-where, or
//     secret exfiltration — into a concrete chain of stack words, and the
//     campaign fires that chain through a first-return stack smash on a real
//     pipeline (fire.go). Success is judged architecturally: marker bytes on
//     the output channel, the poked memory word, or the leaked secret.
//
//  2. A JIT-ROP-style disclosure attacker (knowledge.go): the attacker starts
//     with zero knowledge of the victim (diversified deployment — the Snow et
//     al. setting the paper cites) and spends a budgeted leak oracle, one
//     4 KiB page per operation, to rebuild a gadget view from only-disclosed
//     bytes. Re-attempting the chain after every leak yields the
//     pages-leaked-vs-success work-factor curve. What a page is worth differs
//     by mode and is the heart of the measurement:
//
//     baseline: a leaked text page is the executable layout — gadget
//     addresses are directly mountable, so a page or two decides the game.
//
//     naive ILR: the leaked text is the scattered image, so instruction
//     ADJACENCY is destroyed (a byte-offset gadget body no longer sits in
//     one place) and a code page alone names no original address. Naive
//     hardware ILR keeps its location map in ordinary memory, so the oracle
//     can also leak map pages ((original, randomized) address pairs); a
//     code fragment becomes a usable gadget only when the SAME EPOCH
//     discloses both its map entry and its code bytes. Chains then target
//     original instruction-start addresses, which the naive fetch path
//     translates — the un-randomized space is left live, the mode's
//     characteristic weakness.
//
//     VCFR: the leaked text shows the original layout (that is what memory
//     holds), but every such address carries the randomized tag, so the
//     compiled chain faults on its first gadget: default-deny turns the
//     whole disclosure channel into detection events. The translation
//     tables live in processor-protected pages and cannot be leaked at all
//     — the paper's central hardware-support argument.
//
//  3. A periodic re-randomization defense (the rerand arm of each cell): the
//     victim keeps executing while the campaign re-runs the ILR rewriter
//     every RerandEvery leak operations and swaps the live pipeline onto the
//     new layout (cpu.Pipeline.Rerandomize — new image bytes, tables, DRC,
//     predictors; architectural state preserved). Leaked knowledge that
//     names the randomized space goes stale: un-paired naive map entries and
//     disclosed code pages die with the epoch, so the attacker's
//     cross-channel pairing rate collapses and the leak budget needed for
//     the same success strictly grows. Knowledge of ORIGINAL-space facts
//     survives re-randomization by construction — the campaign reports
//     that, too, as the honest limit of the defense under naive ILR.
//
// Everything is deterministic: cell seeds derive from the campaign seed via
// harness.CellSeed, so the same Config yields byte-identical reports at any
// worker count, and the canonical campaign is golden-pinned.
package attack

import (
	"fmt"
	"strings"

	"vcfr/internal/results"
	"vcfr/internal/stats"
)

// Payload names one attack template the chain builder can compile.
type Payload string

// The payload templates, in report order. They are the classic goals of a
// code-reuse attacker: prove control, corrupt state, and steal data.
const (
	// PayloadPrint prints a marker string through the putchar syscall and
	// exits — the proof-of-control payload.
	PayloadPrint Payload = "print-and-exit"
	// PayloadWrite stores a chosen value at a chosen address — the
	// write-what-where integrity attack.
	PayloadWrite Payload = "write-what-where"
	// PayloadExfil reads a planted secret out of victim memory and emits it
	// on the output channel — the confidentiality attack.
	PayloadExfil Payload = "exfiltrate"
)

// AllPayloads returns the payload templates in their stable report order.
func AllPayloads() []Payload { return []Payload{PayloadPrint, PayloadWrite, PayloadExfil} }

func (p Payload) valid() bool {
	switch p {
	case PayloadPrint, PayloadWrite, PayloadExfil:
		return true
	}
	return false
}

// ParsePayloads maps CLI/request strings onto payload templates.
func ParsePayloads(names []string) ([]Payload, error) {
	out := make([]Payload, 0, len(names))
	for _, n := range names {
		p := Payload(strings.TrimSpace(n))
		if !p.valid() {
			return nil, fmt.Errorf("attack: unknown payload %q (want one of %v)", n, AllPayloads())
		}
		out = append(out, p)
	}
	return out, nil
}

// The payloads' concrete parameters. The scratch addresses sit in the unused
// gap between the text base (0x1000) and the data base (0x10_0000), so no
// workload touches them on its own.
const (
	// marker is what PayloadPrint must emit to count as a success.
	marker = "VX-PWN"
	// WriteAddr/WriteValue are PayloadWrite's what and where.
	WriteAddr  = 0x0008_0000
	WriteValue = 0xC0DE_FACE
	// SecretAddr is where the campaign plants the secret PayloadExfil must
	// leak.
	SecretAddr = 0x0008_4000
)

// secret is the planted value PayloadExfil must reproduce on the output
// channel. The bytes are outside the printable range every workload emits.
var secret = []byte{0xCA, 0xFE, 0xD0, 0x0D}

// Outcome classifies one fired chain (or the absence of one).
type Outcome string

// The fire taxonomy, from the attacker's win down to never having a chain.
const (
	// OutcomeSuccess: the payload's architectural effect was observed.
	OutcomeSuccess Outcome = "success"
	// OutcomeBlockedRPC: a chain transfer targeted an unmapped or prohibited
	// randomized-space address and the machine raised a control violation —
	// the defense detected the attack.
	OutcomeBlockedRPC Outcome = "blocked-unmapped-rpc"
	// OutcomeBlockedIllegal: the chain ran into bytes that do not decode
	// (e.g. the zeroed gaps of the scattered layout).
	OutcomeBlockedIllegal Outcome = "blocked-illegal-instruction"
	// OutcomeCrash: the hijacked run died on another architectural fault.
	OutcomeCrash Outcome = "crashed"
	// OutcomeNoEffect: the run finished without the payload's effect (or the
	// victim never executed a hijackable return).
	OutcomeNoEffect Outcome = "no-effect"
	// OutcomeNoChain: the attacker's view never compiled into a chain.
	OutcomeNoChain Outcome = "no-chain"
)

// AddFire counts one fired chain's classified outcome into c, the
// attacker-activity histogram of a campaign cell, of a campaign's totals, or
// of the service's running attack.* series.
func AddFire(c *results.AttackCounts, o Outcome) {
	c.ChainsFired++
	switch o {
	case OutcomeSuccess:
		c.Successes++
	case OutcomeBlockedRPC:
		c.BlockedRPC++
	case OutcomeBlockedIllegal:
		c.BlockedIllegal++
	case OutcomeCrash:
		c.Crashes++
	case OutcomeNoEffect:
		c.NoEffect++
	}
}

// Merge accumulates src into dst.
func Merge(dst *results.AttackCounts, src results.AttackCounts) {
	dst.ChainsBuilt += src.ChainsBuilt
	dst.ChainsFired += src.ChainsFired
	dst.Successes += src.Successes
	dst.BlockedRPC += src.BlockedRPC
	dst.BlockedIllegal += src.BlockedIllegal
	dst.Crashes += src.Crashes
	dst.NoEffect += src.NoEffect
	dst.Leaks += src.Leaks
	dst.CodePages += src.CodePages
	dst.MapPages += src.MapPages
	dst.Rerandomizations += src.Rerandomizations
}

// Register adds c's counters to a registry under the attack.* namespace.
func Register(r *stats.Registry, c *results.AttackCounts) {
	a := r.Scope("attack")
	a.Counter("chains.built", "ROP chains the attacker compiled from its current gadget view.", &c.ChainsBuilt)
	a.Counter("chains.fired", "Compiled chains fired through the first-return hijack.", &c.ChainsFired)
	a.Counter("success", "Fired chains whose payload effect was observed.", &c.Successes)
	a.Counter("blocked.unmapped_rpc", "Fired chains detected as a transfer to an unmapped/prohibited randomized address.", &c.BlockedRPC)
	a.Counter("blocked.illegal_instruction", "Fired chains detected by a failed fetch or illegal opcode.", &c.BlockedIllegal)
	a.Counter("crashed", "Fired chains that died on another architectural fault.", &c.Crashes)
	a.Counter("no_effect", "Fired chains that ran without producing the payload effect.", &c.NoEffect)
	a.Counter("leaks", "Disclosure operations the leak oracle served.", &c.Leaks)
	a.Counter("pages.code", "Code pages disclosed to the attacker.", &c.CodePages)
	a.Counter("pages.map", "Naive-ILR location-map pages disclosed to the attacker.", &c.MapPages)
	a.Counter("rerandomizations", "Mid-execution layout swaps the re-randomization defense performed.", &c.Rerandomizations)
}
