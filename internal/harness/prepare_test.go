package harness

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"

	"vcfr/internal/ilr"
	"vcfr/internal/workloads"
)

// builtinWorkloads is every synthetic workload plus the first ELF fixture.
func builtinWorkloads(t testing.TB) []string {
	t.Helper()
	var names []string
	for _, name := range workloads.Names() {
		_, source, err := workloads.Describe(name)
		if err != nil {
			t.Fatal(err)
		}
		if source == workloads.SourceSynthetic {
			names = append(names, name)
		}
	}
	return append(names, workloads.ELFNames()[0])
}

// TestProgramMemoMatchesUncached: an app rewritten from the runner's
// memoized program has the same images, tables and return-address map as an
// uncached PrepareOpts of the same layout, for every built-in workload, two
// seeds and two rewriter option sets.
func TestProgramMemoMatchesUncached(t *testing.T) {
	r := NewRunner(1)
	ctx := context.Background()
	names := builtinWorkloads(t)
	for _, name := range names {
		for _, seed := range []int64{7, 42} {
			for _, opts := range []ilr.Options{{}, {PageConfined: true}} {
				label := fmt.Sprintf("%s/seed-%d/%+v", name, seed, opts)
				cfg := Config{Seed: seed}
				got, err := r.layout(ctx, name, cfg, opts)
				if err != nil {
					t.Fatalf("%s: memoized: %v", label, err)
				}
				want, err := PrepareOpts(name, cfg, opts)
				if err != nil {
					t.Fatalf("%s: uncached: %v", label, err)
				}
				for _, f := range []struct {
					field     string
					got, want any
				}{
					{"Orig", got.R.Orig, want.R.Orig},
					{"VCFR", got.R.VCFR, want.R.VCFR},
					{"Scattered", got.R.Scattered, want.R.Scattered},
					{"Tables", got.R.Tables, want.R.Tables},
					{"RandRA", got.R.RandRA, want.R.RandRA},
					{"Opts", got.R.Opts, want.R.Opts},
					{"Stats", got.R.Stats, want.R.Stats},
					{"Input", got.W.Input, want.W.Input},
				} {
					if !reflect.DeepEqual(f.got, f.want) {
						t.Errorf("%s: %s differs from the uncached rewrite", label, f.field)
					}
				}
			}
		}
	}
	if _, misses := r.programs.stats(); misses != uint64(len(names)) {
		t.Errorf("program memo built %d programs, want one per workload (%d)", misses, len(names))
	}
}

// TestProgramMemoSharesProgram: layouts of one workload at different seeds
// share its image and CFG instead of rebuilding them.
func TestProgramMemoSharesProgram(t *testing.T) {
	r := NewRunner(1)
	ctx := context.Background()
	a, err := r.Prepare(ctx, "bzip2", Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Prepare(ctx, "bzip2", Config{Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if a == b || a.R.Tables == b.R.Tables {
		t.Fatal("two seeds share one layout")
	}
	if a.W.Img != b.W.Img || a.R.Orig != b.R.Orig {
		t.Error("layouts of one workload hold distinct images")
	}
	if a.R.Graph != b.R.Graph {
		t.Error("layouts of one workload hold distinct CFGs")
	}
}

// TestProgramMemoSingleFlight: concurrent cold prepares of eight layouts of
// one workload build its program once and each layout once.
func TestProgramMemoSingleFlight(t *testing.T) {
	r := NewRunner(8)
	const n = 8
	apps := make([]*App, n)
	var wg sync.WaitGroup
	for i := range apps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			app, err := r.Prepare(context.Background(), "xalan", Config{Seed: int64(i + 1)})
			if err != nil {
				t.Error(err)
				return
			}
			apps[i] = app
		}()
	}
	wg.Wait()
	if hits, misses := r.programs.stats(); misses != 1 || hits != n-1 {
		t.Errorf("program memo: %d hits, %d misses; want %d, 1", hits, misses, n-1)
	}
	if hits, misses := r.AppMemoStats(); misses != n || hits != 0 {
		t.Errorf("app memo: %d hits, %d misses; want 0, %d", hits, misses, n)
	}
	for _, app := range apps[1:] {
		if app != nil && apps[0] != nil && app.R.Graph != apps[0].R.Graph {
			t.Error("concurrent layouts hold distinct CFGs")
		}
	}
}

// TestProgramMemoEvicts: the program memo keeps at most maxPrograms
// programs, evicting the oldest, which the next lookup builds afresh.
func TestProgramMemoEvicts(t *testing.T) {
	r := NewRunner(1)
	ctx := context.Background()
	first, err := r.loadProgram(ctx, "memcpy", 1)
	if err != nil {
		t.Fatal(err)
	}
	for scale := 2; scale <= maxPrograms+1; scale++ {
		if _, err := r.loadProgram(ctx, "memcpy", scale); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(r.programs.m); n != maxPrograms || len(r.programs.order) != maxPrograms {
		t.Errorf("program memo holds %d entries (%d ordered), want %d", n, len(r.programs.order), maxPrograms)
	}
	again, err := r.loadProgram(ctx, "memcpy", 1)
	if err != nil {
		t.Fatal(err)
	}
	if again == first {
		t.Error("the oldest program survived eviction")
	}
	if hits, misses := r.programs.stats(); hits != 0 || misses != maxPrograms+2 {
		t.Errorf("program memo: %d hits, %d misses; want 0, %d", hits, misses, maxPrograms+2)
	}
}

// BenchmarkPrepare measures one app preparation on a runner: cold builds,
// assembles and analyses the workload before rewriting it; warm-program
// rewrites a new layout of a program the runner already holds.
func BenchmarkPrepare(b *testing.B) {
	const name = "gcc"
	ctx := context.Background()
	report := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e6/float64(b.N), "ms/app")
	}
	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewRunner(1).Prepare(ctx, name, Config{Seed: int64(i + 1)}); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
	b.Run("warm-program", func(b *testing.B) {
		r := NewRunner(1)
		if _, err := r.loadProgram(ctx, name, DefaultScale); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := r.Prepare(ctx, name, Config{Seed: int64(i + 1)}); err != nil {
				b.Fatal(err)
			}
		}
		report(b)
	})
}
