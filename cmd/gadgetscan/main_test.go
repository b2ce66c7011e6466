package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"vcfr/internal/gadget"
	"vcfr/internal/realbin/fixtures"
	"vcfr/internal/results"
	"vcfr/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestScanEnvelopeGolden pins the -json output byte for byte: the scanner
// and the randomizer are deterministic per seed, so the envelope for a
// built-in workload is a fixed document. elf-dispatch exercises the same
// pin over lifted real-binary text. Regenerate with -update after a
// deliberate scanner or schema change.
func TestScanEnvelopeGolden(t *testing.T) {
	for _, name := range []string{"xalan", "elf-dispatch"} {
		t.Run(name, func(t *testing.T) {
			w, err := workloads.ByName(name, 1)
			if err != nil {
				t.Fatal(err)
			}
			env, err := scanEnvelope(w.Img, gadget.DefaultMaxInsts, true, 7)
			if err != nil {
				t.Fatal(err)
			}
			got, err := results.Marshal(env)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", name+".golden.json")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("gadget envelope drifted from %s:\n--- got ---\n%s", path, got)
			}

			// Sanity beyond the bytes: the envelope round-trips under the
			// pinned schema and the randomized section reports a strictly
			// smaller pool.
			env2, err := results.Unmarshal(got)
			if err != nil {
				t.Fatal(err)
			}
			g := env2.Gadget
			if g == nil || g.Randomized == nil {
				t.Fatal("envelope missing gadget report or randomized section")
			}
			if g.Randomized.Survivors >= g.Total || g.Randomized.RemovalRate <= 0 {
				t.Errorf("randomization removed nothing: %d of %d survive, removal %.3f",
					g.Randomized.Survivors, g.Total, g.Randomized.RemovalRate)
			}
		})
	}
}

// TestProgramFileMatchesWorkload: a workload's VX source saved as NAME.s,
// and an embedded ELF fixture saved as NAME.elf, scan to the same bytes as
// -workload NAME, in the envelope and in the text report.
func TestProgramFileMatchesWorkload(t *testing.T) {
	src, err := workloads.Source("xalan", 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		workload, file string
		data           []byte
	}{
		{"xalan", "xalan.s", []byte(src)},
		{"elf-dispatch", "elf-dispatch.elf", fixtures.Dispatch},
	} {
		path := filepath.Join(dir, tc.file)
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, flags := range [][]string{{"-json"}, {"-randomize", "-seed", "7"}} {
			got := gadgetscan(t, append(flags, path)...)
			if want := gadgetscan(t, append(flags, "-workload", tc.workload)...); got != want {
				t.Errorf("%s %v: file scan differs from -workload %s:\n%s\nwant\n%s", tc.file, flags, tc.workload, got, want)
			}
		}
	}
}

// gadgetscan runs one command line and returns its stdout.
func gadgetscan(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(args, &out); err != nil {
		t.Fatalf("gadgetscan %v: %v", args, err)
	}
	return out.String()
}
