package harness

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files with current output")

// goldenCfg pins every input that feeds the tables: with the base seed fixed
// and all cell seeds derived from it, the rendered output is byte-stable
// across runs, worker counts, and machines.
func goldenCfg() Config {
	return Config{MaxInsts: 60_000, Seed: 42}
}

// TestGoldenTables locks the exact rendered output of every registered
// experiment, so a new experiment cannot go unpinned. A diff here means
// either a real behaviour change (rerun with -update and review the diff)
// or lost determinism (fix the code).
func TestGoldenTables(t *testing.T) {
	for _, exp := range Experiments {
		id := exp.ID
		t.Run(id, func(t *testing.T) {
			tb, err := exp.Run(sweep(id), goldenCfg())
			if err != nil {
				t.Fatal(err)
			}
			got := tb.Render()
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./internal/harness -run TestGoldenTables -update` to create it)", err)
			}
			if got != string(want) {
				t.Errorf("output changed (rerun with -update if intended):\n--- got ---\n%s--- want ---\n%s", got, want)
			}
		})
	}
}
