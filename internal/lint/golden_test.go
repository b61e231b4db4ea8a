package lint

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden files from current analyzer output")

// loadCase loads one fixture package tree from testdata/src (a real
// checked-in module the go tool ignores) through the same loader
// cmd/vitallint uses.
func loadCase(t *testing.T, dir string) ([]*Package, string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src"))
	if err != nil {
		t.Fatal(err)
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := loader.Load("./" + dir + "/...")
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("no packages under %s", dir)
	}
	return pkgs, loader.ModuleDir
}

// TestGolden runs ALL analyzers over each fixture tree and compares the
// rendered findings — suppressions already applied — against the checked-
// in golden file. Run with -update to regenerate after intentional
// changes.
func TestGolden(t *testing.T) {
	cases := []string{
		"lockcycle", "lockblock", "locks",
		"exhpos", "exhneg",
		"metricpos", "metricneg",
		"baddirective",
	}
	for _, name := range cases {
		t.Run(name, func(t *testing.T) {
			pkgs, root := loadCase(t, name)
			diags := Run(pkgs, All())
			var b strings.Builder
			for _, d := range diags {
				rel, err := filepath.Rel(root, d.Pos.Filename)
				if err != nil {
					rel = d.Pos.Filename
				}
				fmt.Fprintf(&b, "%s:%d:%d: %s: %s\n",
					filepath.ToSlash(rel), d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
			}
			got := b.String()
			goldenPath := filepath.Join("testdata", name+".golden")
			if *update {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run with -update to create): %v", err)
			}
			if got != string(want) {
				t.Errorf("findings differ from %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
			}
		})
	}
}
