package cpu

import (
	"reflect"
	"strings"
	"testing"

	"vcfr/internal/emu"
	"vcfr/internal/ilr"
	"vcfr/internal/program"
)

// TestValidateRejections pins Config.Validate's rejection messages. Validate
// is the one place machine-config bounds are checked — vcfrsim validates its
// flags through it and the vcfrd service validates request bodies through it
// — so these messages are user-facing on both surfaces and must not drift.
func TestValidateRejections(t *testing.T) {
	mod := func(f func(*Config)) Config {
		c := DefaultConfig(ModeVCFR)
		f(&c)
		return c
	}
	tests := []struct {
		name string
		cfg  Config
		want string // exact error message; "" = must pass
	}{
		{"default-baseline", DefaultConfig(ModeBaseline), ""},
		{"default-naive", DefaultConfig(ModeNaiveILR), ""},
		{"default-vcfr", DefaultConfig(ModeVCFR), ""},
		{"zero-mode", mod(func(c *Config) { c.Mode = 0 }),
			"cpu: invalid mode 0"},
		{"mode-out-of-range", mod(func(c *Config) { c.Mode = 7 }),
			"cpu: invalid mode 7"},
		{"gshare-zero", mod(func(c *Config) { c.GshareBits = 0 }),
			"cpu: gshare bits 0 out of range"},
		{"gshare-too-wide", mod(func(c *Config) { c.GshareBits = 25 }),
			"cpu: gshare bits 25 out of range"},
		{"btb-zero", mod(func(c *Config) { c.BTBEntries = 0 }),
			"cpu: BTB 0 entries / 4 ways invalid"},
		{"btb-uneven-ways", mod(func(c *Config) { c.BTBEntries = 500; c.BTBAssoc = 3 }),
			"cpu: BTB 500 entries / 3 ways invalid"},
		{"ras-zero", mod(func(c *Config) { c.RASDepth = 0 }),
			"cpu: RAS depth 0 invalid"},
		{"itlb-zero", mod(func(c *Config) { c.ITLBEntries = 0 }),
			"cpu: iTLB 0 entries / walk 30 invalid"},
		{"negative-walk", mod(func(c *Config) { c.PageWalkLatency = -1 }),
			"cpu: iTLB 64 entries / walk -1 invalid"},
		{"split-odd", mod(func(c *Config) { c.DRCSplit = true; c.DRCEntries = 127 }),
			"cpu: split DRC needs an even entry count, got 127"},
		{"drc2-negative", mod(func(c *Config) { c.DRC2Entries = -1 }),
			"cpu: DRC2 -1 entries / 3 latency invalid"},
		{"drc2-no-latency", mod(func(c *Config) { c.DRC2Entries = 64; c.DRC2Latency = 0 }),
			"cpu: DRC2 64 entries / 0 latency invalid"},
		{"width-zero", mod(func(c *Config) { c.IssueWidth = 0 }),
			"cpu: issue width 0 out of range [1,4]"},
		{"width-too-wide", mod(func(c *Config) { c.IssueWidth = 5 }),
			"cpu: issue width 5 out of range [1,4]"},
		{"drc-zero", mod(func(c *Config) { c.DRCEntries = 0 }),
			"cpu: DRC 0 entries / 1 ways invalid"},
		{"drc-uneven-ways", mod(func(c *Config) { c.DRCEntries = 100; c.DRCAssoc = 3 }),
			"cpu: DRC 100 entries / 3 ways invalid"},
		// The DRC and DRC2 bounds apply only to a mode that has a DRC: a
		// baseline machine with a nonsense DRC config is still valid.
		{"drc-ignored-outside-vcfr", func() Config {
			c := DefaultConfig(ModeBaseline)
			c.DRCEntries = 0
			return c
		}(), ""},
		{"drc2-ignored-outside-vcfr", func() Config {
			c := DefaultConfig(ModeBaseline)
			c.DRC2Entries = -1
			return c
		}(), ""},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			err := tt.cfg.Validate()
			switch {
			case tt.want == "" && err != nil:
				t.Errorf("Validate() = %v, want nil", err)
			case tt.want != "" && (err == nil || err.Error() != tt.want):
				t.Errorf("Validate() = %v, want %q", err, tt.want)
			}
		})
	}
}

// TestValidateMessagePrefix keeps every rejection message in the "cpu: "
// namespace so both CLIs and the HTTP 400 bodies stay greppable to the
// source of truth.
func TestValidateMessagePrefix(t *testing.T) {
	c := DefaultConfig(ModeVCFR)
	c.IssueWidth = 0
	if err := c.Validate(); err == nil || !strings.HasPrefix(err.Error(), "cpu: ") {
		t.Errorf("Validate() = %v, want a message prefixed \"cpu: \"", err)
	}
}

// TestModeDeploy pins the fetch-mode table behind New, every ClusterProc,
// Rerandomize and the per-mode facts other packages read: each mode's name,
// flag (the vocabulary every CLI flag and request field shares) and
// predicates; its image, translator and RandRA being exactly the
// rewrite's own; baseline's translator an untyped nil; and an invalid mode
// named mode(N), with false predicates, that selects nothing (New then
// rejects it through Validate).
func TestModeDeploy(t *testing.T) {
	res := rewriteSrc(t, "fib", fibSrc)
	tests := []struct {
		mode            Mode
		name, flag      string
		randomized, drc bool
		img             *program.Image
		trans           emu.Translator
		randRA          map[uint32]uint32
	}{
		{ModeBaseline, "baseline", "baseline", false, false, res.Orig, nil, nil},
		{ModeNaiveILR, "naive-ilr", "naive", true, false, res.Scattered, res.Tables, nil},
		{ModeVCFR, "vcfr", "vcfr", true, true, res.VCFR, res.Tables, res.RandRA},
		{Mode(0), "mode(0)", "", false, false, nil, nil, nil},
		{Mode(9), "mode(9)", "", false, false, nil, nil, nil},
	}
	for _, tc := range tests {
		if got := tc.mode.String(); got != tc.name {
			t.Errorf("Mode(%d).String() = %q, want %q", int(tc.mode), got, tc.name)
		}
		if tc.flag != "" {
			if got, err := ParseModes(tc.flag); err != nil || !reflect.DeepEqual(got, []Mode{tc.mode}) {
				t.Errorf("ParseModes(%q) = %v, %v; want [%v]", tc.flag, got, err, tc.mode)
			}
		}
		if tc.mode.Randomized() != tc.randomized || tc.mode.HasDRC() != tc.drc {
			t.Errorf("%v: Randomized() = %v, HasDRC() = %v; want %v, %v",
				tc.mode, tc.mode.Randomized(), tc.mode.HasDRC(), tc.randomized, tc.drc)
		}
		img, trans, randRA := tc.mode.Deploy(res)
		if img != tc.img {
			t.Errorf("%v: image %p, want %p", tc.mode, img, tc.img)
		}
		if trans != tc.trans {
			t.Errorf("%v: translator %#v, want %#v", tc.mode, trans, tc.trans)
		}
		if reflect.ValueOf(randRA).Pointer() != reflect.ValueOf(tc.randRA).Pointer() {
			t.Errorf("%v: RandRA is not the rewrite's own map", tc.mode)
		}
		if tc.mode.Valid() != (img != nil) {
			t.Errorf("%v: Valid() = %v with image %p", tc.mode, tc.mode.Valid(), img)
		}
		_, err := New(img, DefaultConfig(tc.mode), trans, randRA)
		if (err == nil) != tc.mode.Valid() {
			t.Errorf("%v: New error = %v", tc.mode, err)
		}
	}

	if _, trans, _ := ModeBaseline.Deploy(res); trans != nil {
		t.Errorf("baseline translator = %#v, want an untyped nil", trans)
	}
	if len(AllModes()) != 3 {
		t.Errorf("AllModes() = %v, want the three rows above", AllModes())
	}
	for _, s := range []string{"", "all"} {
		if got, err := ParseModes(s); err != nil || !reflect.DeepEqual(got, AllModes()) {
			t.Errorf("ParseModes(%q) = %v, %v; want AllModes()", s, got, err)
		}
	}
	const unknown = `unknown mode "naive-ilr" (want baseline, naive, vcfr, or all)`
	if _, err := ParseModes("naive-ilr"); err == nil || err.Error() != unknown {
		t.Errorf("ParseModes(report name) error = %v, want %q", err, unknown)
	}
	noTables := &ilr.Result{Orig: res.Orig, Scattered: res.Scattered, VCFR: res.VCFR, RandRA: res.RandRA}
	for _, m := range AllModes() {
		if _, trans, _ := m.Deploy(noTables); trans != nil {
			t.Errorf("%v: nil Tables deployed as translator %#v", m, trans)
		}
		if img, trans, randRA := m.Deploy(nil); img != nil || trans != nil || randRA != nil {
			t.Errorf("%v: nil result deployed %p/%#v/%v", m, img, trans, randRA)
		}
	}
}
