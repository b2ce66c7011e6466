package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"vcfr/internal/asm"
	"vcfr/internal/realbin/fixtures"
	"vcfr/internal/workloads"
)

// TestWorkloadSourceAssembles: -workload W -src prints assembly source that
// assembles to the workload's own image (same text bytes, same entry), so
// it can be edited and fed back to vxasm or vcfrsim.
func TestWorkloadSourceAssembles(t *testing.T) {
	for _, name := range []string{"xalan", "bzip2"} {
		var out bytes.Buffer
		if err := run([]string{"-workload", name, "-scale", "2", "-src"}, &out); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		img, err := asm.Assemble(name, out.String())
		if err != nil {
			t.Fatalf("%s: printed source does not assemble: %v", name, err)
		}
		w, err := workloads.ByName(name, 2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(img.Text().Data, w.Img.Text().Data) || img.Entry != w.Img.Entry {
			t.Errorf("%s: printed source assembles to different text or entry (%#x, want %#x)",
				name, img.Entry, w.Img.Entry)
		}
	}
}

// TestELFWorkloadHasNoSource: a lifted ELF workload has no assembly source,
// and -src says so instead of printing something else.
func TestELFWorkloadHasNoSource(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-workload", "elf-fib", "-src"}, &out); err == nil {
		t.Fatalf("-src on an ELF workload succeeded, printing %d bytes", out.Len())
	}
}

// TestProgramFileListing: the listing of a program file, VX source or an
// ELF binary, is the listing of the built-in workload it holds.
func TestProgramFileListing(t *testing.T) {
	src, err := workloads.Source("bzip2", 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, tc := range []struct {
		workload, file string
		data           []byte
	}{
		{"bzip2", "bzip2.s", []byte(src)},
		{"elf-fib", "elf-fib.elf", fixtures.Fib},
	} {
		path := filepath.Join(dir, tc.file)
		if err := os.WriteFile(path, tc.data, 0o644); err != nil {
			t.Fatal(err)
		}
		var got, want bytes.Buffer
		if err := run([]string{path}, &got); err != nil {
			t.Fatalf("%s: %v", tc.file, err)
		}
		if err := run([]string{"-workload", tc.workload}, &want); err != nil {
			t.Fatal(err)
		}
		if got.Len() == 0 || got.String() != want.String() {
			t.Errorf("%s: listing differs from -workload %s:\n%s\nwant\n%s", tc.file, tc.workload, &got, &want)
		}
	}
}
