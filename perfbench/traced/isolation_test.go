package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestBuildsWithoutTraceLayer checks that the trace layer is removable:
// the traced run still builds with tracelayer.go deleted.
func TestBuildsWithoutTraceLayer(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the package")
	}
	layer, err := filepath.Abs("tracelayer.go")
	if err != nil {
		t.Fatal(err)
	}
	overlay, err := json.Marshal(map[string]map[string]string{"Replace": {layer: ""}})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "overlay.json")
	if err := os.WriteFile(path, overlay, 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "build", "-overlay", path, "-o", filepath.Join(dir, "traced"), ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("build without tracelayer.go: %v\n%s", err, out)
	}
}
