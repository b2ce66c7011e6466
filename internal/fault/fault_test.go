package fault

import (
	"fmt"
	"math/bits"
	"math/rand"
	"testing"

	"vcfr/internal/cpu"
	"vcfr/internal/emu"
	"vcfr/internal/isa"
	"vcfr/internal/results"
	"vcfr/internal/stats"
)

// TestFlipMask locks the mask-drawing contract: exactly min(bits, width)
// distinct bits set, inside the width, and deterministic per seed.
func TestFlipMask(t *testing.T) {
	for _, tc := range []struct{ bits, width, want int }{
		{1, 32, 1}, {3, 32, 3}, {8, 8, 8}, {40, 32, 32}, {5, 8, 5},
	} {
		rng := rand.New(rand.NewSource(99))
		m := flipMask(rng, tc.bits, tc.width)
		if got := bits.OnesCount32(m); got != tc.want {
			t.Errorf("flipMask(bits=%d, width=%d): %d bits set, want %d", tc.bits, tc.width, got, tc.want)
		}
		if tc.width < 32 && m>>tc.width != 0 {
			t.Errorf("flipMask(bits=%d, width=%d) = %#x: bits outside width", tc.bits, tc.width, m)
		}
	}
	a := flipMask(rand.New(rand.NewSource(7)), 4, 32)
	b := flipMask(rand.New(rand.NewSource(7)), 4, 32)
	if a != b {
		t.Errorf("same seed drew different masks: %#x vs %#x", a, b)
	}
}

// TestInjectorDeterminism is the replay guarantee: the same Fault always
// arms the same flip mask, so an injection re-run is bit-identical.
func TestInjectorDeterminism(t *testing.T) {
	f := Fault{Kind: KindBranchTarget, Index: 100, Bits: 2, Seed: 12345}
	a, b := NewInjector(f), NewInjector(f)
	if a.targetXor != b.targetXor {
		t.Errorf("same fault armed different masks: %#x vs %#x", a.targetXor, b.targetXor)
	}
	f2 := f
	f2.Seed = 54321
	if c := NewInjector(f2); c.targetXor == a.targetXor {
		t.Errorf("different seeds armed the same mask %#x", a.targetXor)
	}

	op := Fault{Kind: KindOpcode, Index: 5, Bits: 1, Seed: 9}
	x, y := NewInjector(op), NewInjector(op)
	if x.opcodeXor != y.opcodeXor || x.opcodeXor == 0 {
		t.Errorf("opcode masks %#x vs %#x, want equal and nonzero", x.opcodeXor, y.opcodeXor)
	}
}

// TestInjectorFiresOnce proves each armed fault corrupts exactly one value:
// at its index, never before, and never again after.
func TestInjectorFiresOnce(t *testing.T) {
	t.Run("opcode", func(t *testing.T) {
		j := NewInjector(Fault{Kind: KindOpcode, Index: 3, Seed: 1})
		h := j.Hooks()
		if h.FetchBytes == nil {
			t.Fatal("opcode fault armed no FetchBytes hook")
		}
		buf := []byte{0x10, 0x20}
		h.FetchBytes(2, 0, buf)
		if buf[0] != 0x10 || j.Fired() {
			t.Fatal("fired before its index")
		}
		h.FetchBytes(3, 0, buf)
		if buf[0] == 0x10 || !j.Fired() {
			t.Fatal("did not fire at its index")
		}
		was := buf[0]
		h.FetchBytes(3, 0, buf)
		if buf[0] != was {
			t.Fatal("fired twice")
		}
	})

	t.Run("branch-target", func(t *testing.T) {
		j := NewInjector(Fault{Kind: KindBranchTarget, Index: 7, Seed: 1})
		h := j.Hooks()
		if h.Outcome == nil {
			t.Fatal("branch-target fault armed no Outcome hook")
		}
		branch := isa.Inst{Op: isa.OpJe}
		out := emu.Outcome{Taken: true, Target: 0x400}
		// Not taken at the index: the kind does not match, nothing fires.
		notTaken := emu.Outcome{Taken: false, Target: 0x400}
		h.Outcome(7, branch, &notTaken)
		if notTaken.Target != 0x400 || j.Fired() {
			t.Fatal("fired on a not-taken branch")
		}
		h.Outcome(7, branch, &out)
		if out.Target == 0x400 || !j.Fired() {
			t.Fatal("did not fire on the taken branch at its index")
		}
	})

	t.Run("drc-entry", func(t *testing.T) {
		j := NewInjector(Fault{Kind: KindDRCEntry, Index: 9, Seed: 1})
		h := j.Hooks()
		if h.Translated == nil {
			t.Fatal("drc-entry fault armed no Translated hook")
		}
		orig := uint32(0x1234)
		h.Translated(8, 0xdead, &orig)
		if orig != 0x1234 {
			t.Fatal("fired before its index")
		}
		h.Translated(9, 0xdead, &orig)
		if orig == 0x1234 || !j.Fired() {
			t.Fatal("did not fire at its index")
		}
	})
}

// TestKindMatches pins the fault model's site selection per kind.
func TestKindMatches(t *testing.T) {
	for _, tc := range []struct {
		kind  Kind
		class isa.Class
		taken bool
		want  bool
	}{
		{KindBranchTarget, isa.ClassBranch, true, true},
		{KindBranchTarget, isa.ClassBranch, false, false},
		{KindBranchTarget, isa.ClassCall, true, true},
		{KindBranchTarget, isa.ClassRet, true, false},
		{KindIndirectTarget, isa.ClassJumpR, true, true},
		{KindIndirectTarget, isa.ClassJump, true, false},
		{KindReturnAddress, isa.ClassRet, true, true},
		{KindReturnAddress, isa.ClassCall, true, false},
		{KindOpcode, isa.ClassSeq, false, true},
		{KindDRCEntry, isa.ClassJump, true, true},
		{KindDRCEntry, isa.ClassRet, true, false},
	} {
		if got := tc.kind.matches(tc.class, tc.taken); got != tc.want {
			t.Errorf("%s.matches(%v, taken=%v) = %v, want %v", tc.kind, tc.class, tc.taken, got, tc.want)
		}
	}
}

func TestParseKinds(t *testing.T) {
	ks, err := ParseKinds([]string{"branch-target", " opcode"})
	if err != nil || len(ks) != 2 || ks[0] != KindBranchTarget || ks[1] != KindOpcode {
		t.Errorf("ParseKinds = %v, %v", ks, err)
	}
	if _, err := ParseKinds([]string{"cosmic-ray"}); err == nil {
		t.Error("unknown kind accepted")
	}
}

// TestClassify covers the whole outcome taxonomy against a fixed reference.
func TestClassify(t *testing.T) {
	ref := Reference{Insts: 1000, Halted: true, ExitCode: 0, Out: []byte("ok\n")}
	halted := func(exit uint32, out string) cpu.Result {
		var r cpu.Result
		r.Halted = true
		r.ExitCode = exit
		r.Out = []byte(out)
		return r
	}
	for _, tc := range []struct {
		name string
		res  cpu.Result
		err  error
		ref  Reference
		want Outcome
	}{
		{"control violation", cpu.Result{}, cpu.ErrControlViolation, ref, OutcomeDetectedRPC},
		{"wrapped control violation", cpu.Result{},
			fmt.Errorf("run: %w", cpu.ErrControlViolation), ref, OutcomeDetectedRPC},
		{"failed fetch", cpu.Result{}, &emu.Fault{Addr: 0x99, Msg: "fetch: truncated"}, ref, OutcomeDetectedIllegal},
		{"invalid opcode", cpu.Result{}, &emu.Fault{Addr: 0x99, Msg: "invalid opcode 0xff"}, ref, OutcomeDetectedIllegal},
		{"other fault", cpu.Result{}, &emu.Fault{Addr: 0x99, Msg: "divide by zero"}, ref, OutcomeCrash},
		{"hang", cpu.Result{}, nil, ref, OutcomeHang},
		{"masked", halted(0, "ok\n"), nil, ref, OutcomeMasked},
		{"sdc exit code", halted(1, "ok\n"), nil, ref, OutcomeSDC},
		{"sdc output", halted(0, "no\n"), nil, ref, OutcomeSDC},
		{"capped reference still running", cpu.Result{}, nil,
			Reference{Insts: 1000, Halted: false}, OutcomeMasked},
	} {
		if got := Classify(tc.res, tc.err, tc.ref); got != tc.want {
			t.Errorf("%s: Classify = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestReferenceBudget(t *testing.T) {
	if got := (Reference{Insts: 1000, Halted: true}).Budget(); got != 3024 {
		t.Errorf("halted reference budget = %d, want 2*1000+1024", got)
	}
	if got := (Reference{Insts: 1000, Halted: false}).Budget(); got != 1000 {
		t.Errorf("capped reference budget = %d, want 1000", got)
	}
}

// TestStatsSpine locks the fault.* registration: names, order, and that Add
// routes every outcome to its counter.
func TestStatsSpine(t *testing.T) {
	var s results.CampaignCounts
	for _, o := range Outcomes() {
		Add(&s, o)
	}
	if s.Injected != uint64(len(Outcomes())) {
		t.Errorf("Injected = %d, want %d", s.Injected, len(Outcomes()))
	}
	if s.DetectedUnmappedRPC+s.DetectedIllegal != 2 || DetectionRate(s) != 2.0/float64(len(Outcomes())) {
		t.Errorf("counts %+v, detection rate %v", s, DetectionRate(s))
	}

	r := stats.New()
	Register(r, &s)
	var names []string
	var sum uint64
	r.Snapshot().Each(func(d stats.Desc, v stats.Value) {
		names = append(names, d.Name)
		sum += v.U
	})
	want := []string{"fault.injected", "fault.detected.unmapped_rpc", "fault.detected.illegal_instruction",
		"fault.crashes", "fault.sdc", "fault.masked", "fault.hangs"}
	if len(names) != len(want) {
		t.Fatalf("registered %d counters %v, want %d", len(names), names, len(want))
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("counter %d = %q, want %q", i, names[i], want[i])
		}
	}
	// Injected plus one count per outcome.
	if sum != 2*uint64(len(Outcomes())) {
		t.Errorf("registered values sum to %d, want %d", sum, 2*len(Outcomes()))
	}

	var m results.CampaignCounts
	Merge(&m, s)
	Merge(&m, s)
	if m.Injected != 2*s.Injected || m.Hangs != 2*s.Hangs || m.SDC != 2*s.SDC {
		t.Errorf("Merge: %+v", m)
	}
}
