// Package workloads generates the synthetic SPEC CPU2006 analogs the
// evaluation runs (Sec. VI-B). SPEC binaries are licensed and x86-specific,
// so each analog is a generated VX program engineered to exhibit the
// control-flow and memory character that drives the paper's results for the
// corresponding benchmark:
//
//	bzip2       byte-stream compression: RLE + move-to-front, data-dependent branches
//	gcc         very large code footprint, hundreds of functions, irregular call order
//	mcf         pointer chasing over a scattered linked structure (DL1-bound)
//	hmmer       dynamic-programming inner loops (Viterbi-like), regular branches
//	sjeng       recursive game-tree search, deep call/return chains
//	libquantum  long streaming array sweeps, tiny loop body
//	h264ref     motion-estimation block search, call-dense inner loop, byte loads
//	lbm         large unrolled stencil body, helper calls spread across it
//	xalan       virtual-dispatch interpreter over a tree, huge code + indirect calls
//	namd        pairwise force loops, call-dense fixed-point arithmetic
//	soplex      sparse matrix-vector products through index indirection
//
// plus the Fig. 2 extras:
//
//	memcpy      word-wise copy loops
//	python      bytecode interpreter running a synthetic program (dispatch-heavy)
//
// Every workload prints a final checksum via SysWriteInt, so functional
// equivalence between the original and every randomized execution mode is
// checked end to end. Generation is deterministic: the same name and scale
// always produce the same image.
//
// Alongside the synthetic analogs, the registry serves the embedded
// real-binary fixtures (elf-fib, elf-crc32, elf-dispatch): RV64 ELF
// executables lifted through internal/realbin into the same Workload shape.
// Every consumer of ByName — the harness, the fault/attack/multicore
// campaigns, the vcfrd job API — gets real-binary support through this one
// entry point.
package workloads

import (
	"fmt"
	"sort"

	"vcfr/internal/asm"
	"vcfr/internal/program"
	"vcfr/internal/realbin"
	"vcfr/internal/realbin/fixtures"
)

// Workload source kinds.
const (
	// SourceSynthetic marks workloads generated as VX assembly.
	SourceSynthetic = "synthetic"
	// SourceELF marks workloads lifted from embedded RV64 ELF binaries.
	SourceELF = "elf"
)

// Workload is one benchmark program, ready to run.
type Workload struct {
	Name   string
	Desc   string
	Source string // SourceSynthetic or SourceELF
	Img    *program.Image
	Input  []byte // stdin served to SysGetChar (empty for most)
}

// generator builds a workload's assembly source at a given scale.
type generator struct {
	desc  string
	build func(scale int) (source string, input []byte)
}

// registry maps workload names to generators. Populated in this file so the
// ordering of All is explicit and stable.
var registry = map[string]generator{
	"bzip2":      {"RLE + move-to-front compression over a pseudo-random buffer", genBzip2},
	"gcc":        {"large irregular code footprint, hundreds of small functions", genGCC},
	"mcf":        {"pointer chasing over a permuted linked ring", genMCF},
	"hmmer":      {"Viterbi-style dynamic-programming sweeps", genHmmer},
	"sjeng":      {"recursive negamax game-tree search", genSjeng},
	"libquantum": {"streaming gate operations over a large register array", genLibquantum},
	"h264ref":    {"SAD block motion search with helper calls in the inner loop", genH264},
	"lbm":        {"unrolled stencil relaxation with scattered helper calls", genLBM},
	"xalan":      {"virtual-dispatch tree transformation interpreter", genXalan},
	"namd":       {"pairwise force computation, call-dense fixed-point math", genNamd},
	"soplex":     {"sparse matrix-vector products via index arrays", genSoplex},
	"memcpy":     {"repeated word-wise buffer copies", genMemcpy},
	"python":     {"bytecode interpreter executing a synthetic program", genPython},
}

// SpecNames are the 11 SPEC CPU2006 analogs, in the paper's Table II order.
var SpecNames = []string{
	"bzip2", "gcc", "h264ref", "hmmer", "lbm", "libquantum",
	"mcf", "namd", "sjeng", "soplex", "xalan",
}

// Fig2Names are the applications of the paper's Fig. 2.
var Fig2Names = []string{"bzip2", "h264ref", "hmmer", "memcpy", "python", "xalan"}

// ELFNames returns the embedded real-binary workload names, in canonical
// fixture order.
func ELFNames() []string {
	var out []string
	for _, f := range fixtures.All() {
		out = append(out, f.Name)
	}
	return out
}

// Names returns every available workload name — synthetic and ELF — sorted.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	out = append(out, ELFNames()...)
	sort.Strings(out)
	return out
}

// CheckName reports whether name is an available workload without building
// it: nil, or the error ByName returns for an unknown name.
func CheckName(name string) error {
	if _, ok := fixtures.ByName(name); ok {
		return nil
	}
	if _, ok := registry[name]; ok {
		return nil
	}
	return fmt.Errorf("workloads: unknown workload %q (have %v)", name, Names())
}

// ByName builds the named workload at the given scale (scale <= 0 means 1).
// Scale multiplies iteration counts, not code size, so static analyses are
// scale-invariant while dynamic instruction counts grow. ELF workloads are
// fixed binaries; scale is ignored for them.
func ByName(name string, scale int) (Workload, error) {
	if fx, ok := fixtures.ByName(name); ok {
		lifted, err := realbin.Load(fx.Data, fx.Name)
		if err != nil {
			return Workload{}, fmt.Errorf("workloads: %s: %w", name, err)
		}
		return Workload{Name: fx.Name, Desc: fx.Desc, Source: SourceELF, Img: lifted.Img}, nil
	}
	g, ok := registry[name]
	if !ok {
		return Workload{}, CheckName(name)
	}
	if scale <= 0 {
		scale = 1
	}
	src, input := g.build(scale)
	img, err := asm.Assemble(name, src)
	if err != nil {
		return Workload{}, fmt.Errorf("workloads: %s: %w", name, err)
	}
	return Workload{Name: name, Desc: g.desc, Source: SourceSynthetic, Img: img, Input: input}, nil
}

// FromELF lifts an arbitrary RV64 ELF binary (e.g. one passed to
// `vcfrsim -elf`) into a Workload.
func FromELF(data []byte, name string) (Workload, error) {
	lifted, err := realbin.Load(data, name)
	if err != nil {
		return Workload{}, fmt.Errorf("workloads: %s: %w", name, err)
	}
	return Workload{
		Name:   name,
		Desc:   fmt.Sprintf("lifted RV64 ELF binary (%d VX instructions)", lifted.Report.VXInstructions),
		Source: SourceELF,
		Img:    lifted.Img,
	}, nil
}

// Source returns the generated assembly source for the named workload at
// the given scale — the exact text ByName assembles. It exists to seed
// corpora (the assembler round-trip fuzzer) with realistic whole programs.
func Source(name string, scale int) (string, error) {
	g, ok := registry[name]
	if !ok {
		if _, elf := fixtures.ByName(name); elf {
			return "", fmt.Errorf("workloads: %s is an ELF workload with no assembly source", name)
		}
		return "", fmt.Errorf("workloads: unknown workload %q (have %v)", name, Names())
	}
	if scale <= 0 {
		scale = 1
	}
	src, _ := g.build(scale)
	return src, nil
}

// MustAssembleSource assembles generated source that is known-good by
// construction; it panics on error (generator bugs are programming errors).
func MustAssembleSource(name, source string) *program.Image {
	return asm.MustAssemble(name, source)
}

// MustByName is ByName for known-good names; it panics on error.
func MustByName(name string, scale int) Workload {
	w, err := ByName(name, scale)
	if err != nil {
		panic(err)
	}
	return w
}

// Spec builds all 11 SPEC analogs.
func Spec(scale int) []Workload {
	out := make([]Workload, 0, len(SpecNames))
	for _, n := range SpecNames {
		out = append(out, MustByName(n, scale))
	}
	return out
}

// Fig2Set builds the Fig. 2 application set.
func Fig2Set(scale int) []Workload {
	out := make([]Workload, 0, len(Fig2Names))
	for _, n := range Fig2Names {
		out = append(out, MustByName(n, scale))
	}
	return out
}
