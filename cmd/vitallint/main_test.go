package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule materializes a throwaway module and chdirs into it, so run()
// resolves packages exactly as a user invocation would.
func writeModule(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	files["go.mod"] = "module tmp\n\ngo 1.22\n"
	for rel, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cwd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = os.Chdir(cwd) })
}

const cleanSrc = `package p

import "sort"

// Keys sorts what it collects from the map.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
`

const dirtySrc = `package p

import "fmt"

// Dump prints in map order: a mapdeterminism finding.
func Dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}
`

// TestExitCodeContract pins the documented exit statuses: 0 clean,
// 1 findings, 2 load/usage error.
func TestExitCodeContract(t *testing.T) {
	t.Run("clean is 0", func(t *testing.T) {
		writeModule(t, map[string]string{"p/p.go": cleanSrc})
		var out, errOut bytes.Buffer
		if code := run([]string{"./..."}, &out, &errOut); code != 0 {
			t.Fatalf("exit %d, want 0\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
		}
	})
	t.Run("findings are 1", func(t *testing.T) {
		writeModule(t, map[string]string{"p/p.go": dirtySrc})
		var out, errOut bytes.Buffer
		if code := run([]string{"./..."}, &out, &errOut); code != 1 {
			t.Fatalf("exit %d, want 1\nstderr: %s", code, errOut.String())
		}
		if !strings.Contains(out.String(), "mapdeterminism") {
			t.Errorf("text output missing analyzer name: %q", out.String())
		}
	})
	t.Run("load error is 2", func(t *testing.T) {
		writeModule(t, map[string]string{"p/p.go": "package p\n\nfunc {\n"})
		var out, errOut bytes.Buffer
		if code := run([]string{"./..."}, &out, &errOut); code != 2 {
			t.Fatalf("exit %d, want 2", code)
		}
	})
	t.Run("no matching packages is 2", func(t *testing.T) {
		writeModule(t, map[string]string{"p/p.go": cleanSrc})
		var out, errOut bytes.Buffer
		if code := run([]string{"./nosuch/..."}, &out, &errOut); code != 2 {
			t.Fatalf("exit %d, want 2", code)
		}
	})
	t.Run("unknown analyzer is 2", func(t *testing.T) {
		writeModule(t, map[string]string{"p/p.go": cleanSrc})
		var out, errOut bytes.Buffer
		if code := run([]string{"-analyzers", "nosuch", "./..."}, &out, &errOut); code != 2 {
			t.Fatalf("exit %d, want 2", code)
		}
	})
	t.Run("conflicting formats are 2", func(t *testing.T) {
		writeModule(t, map[string]string{"p/p.go": cleanSrc})
		var out, errOut bytes.Buffer
		if code := run([]string{"-json", "-sarif", "./..."}, &out, &errOut); code != 2 {
			t.Fatalf("exit %d, want 2", code)
		}
	})
}

// TestOutputModes exercises the text output, -github and the baseline
// lifecycle end to end on a module with one known finding.
func TestOutputModes(t *testing.T) {
	t.Run("text", func(t *testing.T) {
		writeModule(t, map[string]string{"p/p.go": dirtySrc})
		var out, errOut bytes.Buffer
		if code := run([]string{"./..."}, &out, &errOut); code != 1 {
			t.Fatalf("exit %d, want 1", code)
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		want := filepath.Join("p", "p.go") + ":7:2: mapdeterminism: printing inside range over map"
		if len(lines) != 1 || !strings.Contains(lines[0], want) {
			t.Errorf("text output = %q, want one line containing %q", out.String(), want)
		}
	})
	t.Run("github annotations", func(t *testing.T) {
		writeModule(t, map[string]string{"p/p.go": dirtySrc})
		var out, errOut bytes.Buffer
		if code := run([]string{"-github", "./..."}, &out, &errOut); code != 1 {
			t.Fatalf("exit %d, want 1", code)
		}
		if !strings.Contains(errOut.String(), "::error file=p/p.go,line=") {
			t.Errorf("no ::error annotation in stderr: %q", errOut.String())
		}
	})
	t.Run("baseline lifecycle", func(t *testing.T) {
		writeModule(t, map[string]string{"p/p.go": dirtySrc})
		var out, errOut bytes.Buffer
		// Record the debt…
		if code := run([]string{"-baseline", "base.json", "-write-baseline", "./..."}, &out, &errOut); code != 0 {
			t.Fatalf("write-baseline exit %d, want 0\n%s", code, errOut.String())
		}
		// …and the same findings now pass…
		out.Reset()
		errOut.Reset()
		if code := run([]string{"-baseline", "base.json", "./..."}, &out, &errOut); code != 0 {
			t.Fatalf("baselined run exit %d, want 0\n%s%s", code, out.String(), errOut.String())
		}
		if !strings.Contains(errOut.String(), "suppressed by baseline") {
			t.Errorf("no suppression notice: %q", errOut.String())
		}
		// …while a fresh finding still fails.
		if err := os.WriteFile(filepath.Join("p", "q.go"),
			[]byte("package p\n\nimport \"fmt\"\n\n// Show prints in map order too.\nfunc Show(m map[string]bool) {\n\tfor k := range m {\n\t\tfmt.Println(k)\n\t}\n}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		out.Reset()
		errOut.Reset()
		if code := run([]string{"-baseline", "base.json", "./..."}, &out, &errOut); code != 1 {
			t.Fatalf("new finding exit %d, want 1", code)
		}
	})
}
