package main

import (
	"bytes"
	"context"
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"vcfr/perfbench/spec"
)

func TestMetricNameValidation(t *testing.T) {
	r := newResult()
	for _, ok := range []string{"setup_s", "cpu.run_ns_per_instr.vcfr", "server.job_ms.run.p50", "9lives", "a-b"} {
		if err := r.set(ok, "s", 1); err != nil {
			t.Errorf("set(%q): %v", ok, err)
		}
	}
	long := strings.Repeat("x", 65)
	for _, bad := range []string{"", ".dot", "_under", "with space", "slash/x", "p99%", long} {
		if err := r.set(bad, "s", 1); err == nil {
			t.Errorf("set(%q) accepted an invalid name", bad)
		}
	}
}

func TestResultLine(t *testing.T) {
	r := newResult()
	r.count(false)
	if err := r.set("setup_s", "s", 0.5); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.write(&buf); err != nil {
		t.Fatal(err)
	}
	var got map[string]json.RawMessage
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := got[k]; !ok {
			t.Errorf("result line lacks %q: %s", k, buf.Bytes())
		}
	}
	if len(got) != 4 {
		t.Errorf("result line has %d keys, want 4: %s", len(got), buf.Bytes())
	}
}

// fakeExperiments writes an executable that prints a fixed sweep envelope,
// standing in for the experiments command.
func fakeExperiments(t *testing.T, envelope string) string {
	t.Helper()
	dir := t.TempDir()
	script := "#!/bin/sh\ncat <<'EOF'\n" + envelope + "\nEOF\n"
	if err := os.WriteFile(filepath.Join(dir, "experiments"), []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	return dir
}

func TestDigestMismatchCountsAsFailure(t *testing.T) {
	envelope := `{"sweep":{"rows":[{"result":{"Stats":{"Instructions":1000}}}]}}`
	bin := fakeExperiments(t, envelope)
	good := spec.Sum([]byte(envelope + "\n"))
	for _, c := range []struct {
		pin        string
		wantFailed int
	}{{good, 0}, {strings.Repeat("0", 64), 1}, {"", 1}} {
		b := &bench{bin: bin, seed: 1, pool: spec.PoolSeed(1), measure: 1,
			digests: &spec.Digests{Sweep: map[string]string{spec.Key(spec.PoolSeed(1)): c.pin}}}
		res := newResult()
		if err := runSweep(context.Background(), b, res); err != nil {
			t.Fatal(err)
		}
		if res.Attempted != 1 || res.Failed != c.wantFailed {
			t.Errorf("pin %.8q: attempted %d failed %d, want 1 and %d", c.pin, res.Attempted, res.Failed, c.wantFailed)
		}
		var buf bytes.Buffer
		if err := res.write(&buf); err != nil {
			t.Fatal(err)
		}
		if wantCorrect := c.wantFailed == 0; res.Correct != wantCorrect {
			t.Errorf("pin %.8q: correct = %v, want %v", c.pin, res.Correct, wantCorrect)
		}
	}
}

// TestEndToEndImports keeps the end-to-end path free of the program's
// internal packages: it drives the shipped commands only, so a change that
// deletes a subsystem is measured with the benchmark unchanged.
func TestEndToEndImports(t *testing.T) {
	for _, dir := range []string{".", "spec"} {
		for _, imp := range importsOf(t, dir) {
			if strings.HasPrefix(imp, "vcfr/internal/") {
				t.Errorf("%s imports %s", dir, imp)
			}
		}
	}
}

// TestTraceLayerIsolated keeps every use of internal/trace in one file of
// the traced run, and the fleet and artifact packages out of it entirely.
func TestTraceLayerIsolated(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("traced", "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		for _, imp := range importsOf(t, f) {
			switch {
			case imp == "vcfr/internal/trace" && filepath.Base(f) != "tracelayer.go":
				t.Errorf("%s imports %s; only tracelayer.go may", f, imp)
			case imp == "vcfr/internal/fleet", imp == "vcfr/internal/artifact":
				t.Errorf("%s imports %s", f, imp)
			}
		}
	}
}

// importsOf lists the import paths of the non-test Go files at path (a
// directory or one file).
func importsOf(t *testing.T, path string) []string {
	t.Helper()
	files := []string{path}
	if st, err := os.Stat(path); err == nil && st.IsDir() {
		files, _ = filepath.Glob(filepath.Join(path, "*.go"))
	}
	var out []string
	fset := token.NewFileSet()
	for _, f := range files {
		if strings.HasSuffix(f, "_test.go") {
			continue
		}
		af, err := parser.ParseFile(fset, f, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, is := range af.Imports {
			p, _ := strconv.Unquote(is.Path.Value)
			out = append(out, p)
		}
	}
	return out
}
