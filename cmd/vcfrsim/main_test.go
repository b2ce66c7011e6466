package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"vcfr/internal/ilr"
	"vcfr/internal/jobs"
	"vcfr/internal/results"
	"vcfr/internal/workloads"
)

// TestFlagsMatchServiceRequest pins the CLI↔service identity at the
// request level: the normalized request vcfrsim builds from its flags must
// equal the one vcfrd decodes and normalizes from the equivalent POST
// /v1/simulate body. Equal requests run the same jobs.Run, so their
// envelopes are byte-identical.
func TestFlagsMatchServiceRequest(t *testing.T) {
	for _, tc := range []struct {
		name, args, body string
	}{
		// The command line scripts/serve_smoke.sh compares with the service.
		{"smoke", "-workload h264ref -mode all -instructions 50000 -stats-json",
			`{"workload": "h264ref", "mode": "all", "instructions": 50000}`},
		{"defaults", "-workload lbm", `{"workload": "lbm"}`},
		{"machine", "-workload lbm -mode naive -drc 64 -width 2 -ctxswitch 5000 -interval 10000 -scale 2 -spread 4 -seed 9",
			`{"workload": "lbm", "mode": "naive", "drc": 64, "width": 2, "ctxswitch": 5000, "interval": 10000, "scale": 2, "spread": 4, "seed": 9}`},
		// An explicit zero is a value, not an absent field, on both surfaces.
		{"seed 0", "-workload bzip2 -seed 0", `{"workload": "bzip2", "seed": 0}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cli := parseFlags(strings.Fields(tc.args)).req
			if err := cli.Normalize(jobs.KindRun); err != nil {
				t.Fatal(err)
			}
			var svc jobs.Request
			dec := json.NewDecoder(strings.NewReader(tc.body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&svc); err != nil {
				t.Fatal(err)
			}
			if err := svc.Normalize(jobs.KindRun); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(cli, svc) {
				c, _ := json.Marshal(cli)
				s, _ := json.Marshal(svc)
				t.Errorf("requests differ:\ncli     %s\nservice %s", c, s)
			}
		})
	}
}

// vcfrsim runs one command line and returns its stdout.
func vcfrsim(t *testing.T, args string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(parseFlags(strings.Fields(args)), &out); err != nil {
		t.Fatalf("vcfrsim %s: %v", args, err)
	}
	return out.String()
}

// envelope runs one -stats-json command line and decodes its envelope.
func envelope(t *testing.T, args string) results.Envelope {
	t.Helper()
	env, err := results.Unmarshal([]byte(vcfrsim(t, args+" -stats-json")))
	if err != nil {
		t.Fatal(err)
	}
	return env
}

// TestSeedZeroOneLayout: -seed 0 selects one layout, the harness default
// (42), whatever the output format, and every row reports the seed it ran.
func TestSeedZeroOneLayout(t *testing.T) {
	const base = "-workload bzip2 -mode naive -instructions 20000"
	zero := vcfrsim(t, base+" -seed 0")
	if one := vcfrsim(t, base+" -seed 1"); zero == one {
		t.Fatal("seeds 0 and 1 print the same report; the check cannot tell layouts apart")
	}
	if want := vcfrsim(t, base+" -seed 42"); zero != want {
		t.Errorf("text -seed 0 differs from -seed 42:\n%s\nwant\n%s", zero, want)
	}
	if text, want := vcfrsim(t, base+" -seed 0 -emulate"), vcfrsim(t, base+" -seed 42 -emulate"); text != want {
		t.Errorf("text -seed 0 -emulate differs from -seed 42:\n%s\nwant\n%s", text, want)
	}

	env := envelope(t, base+" -seed 0 -emulate")
	if len(env.Run) != 2 {
		t.Fatalf("%d rows, want naive-ilr and emulated-ilr", len(env.Run))
	}
	for _, row := range env.Run {
		if row.Seed != 42 {
			t.Errorf("%s row reports seed %d, want 42", row.Mode, row.Seed)
		}
	}
	if want := envelope(t, base+" -seed 42"); !reflect.DeepEqual(env.Run[0], want.Run[0]) {
		t.Error("-seed 0 -stats-json row differs from -seed 42's")
	}
	cycles := strconv.FormatUint(env.Run[0].Result.Stats.Cycles, 10)
	if !strings.Contains(zero, "\ncycles        "+cycles+"\n") {
		t.Errorf("text report does not show the JSON row's %s cycles:\n%s", cycles, zero)
	}
}

// TestBundleRowSeed: a bundle runs the layout it carries, and its rows say
// so: they equal a workload run at the bundle's seed, whatever -seed says.
func TestBundleRowSeed(t *testing.T) {
	w, err := workloads.ByName("bzip2", 1)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := ilr.Rewrite(w.Img, ilr.Options{Seed: 7, Spread: 8})
	if err != nil {
		t.Fatal(err)
	}
	data, err := rw.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "bz.ilr")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	got := envelope(t, "-bundle "+path+" -seed 3 -mode all -instructions 20000")
	for _, row := range got.Run {
		if row.Seed != 7 {
			t.Errorf("%s row reports seed %d, want the bundle's 7", row.Mode, row.Seed)
		}
	}
	if want := envelope(t, "-workload bzip2 -seed 7 -mode all -instructions 20000"); !reflect.DeepEqual(got, want) {
		t.Error("bundle envelope differs from the workload run at the bundle's seed")
	}
}
