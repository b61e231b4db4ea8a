package lint

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// fixtures are small packages seeded with violations (pos) and clean
// counterparts (neg). They live in one throwaway module so the loader and
// both importer paths (module-internal + stdlib source) are exercised end
// to end exactly as cmd/vitallint uses them.
var fixtures = map[string]string{
	"lockpos/lockpos.go": `package lockpos

import "sync"

type Counter struct {
	name string // before mu: unguarded by convention
	mu   sync.Mutex
	n    int
}

// Bump touches the guarded field without locking: violation.
func (c *Counter) Bump() { c.n++ }

// Name reads only pre-mutex state: fine.
func (c *Counter) Name() string { return c.name }
`,
	"lockneg/lockneg.go": `package lockneg

import "sync"

type Counter struct {
	mu sync.Mutex
	n  int
}

// Bump locks before touching the guarded field.
func (c *Counter) Bump() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.n++
}

// Value uses the locked-suffix contract helper.
func (c *Counter) Value() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.valueLocked()
}

func (c *Counter) valueLocked() int { return c.n }

type Embedded struct {
	sync.Mutex
	n int
}

// Inc acquires the embedded mutex.
func (e *Embedded) Inc() {
	e.Lock()
	defer e.Unlock()
	e.n++
}
`,
	"mappos/mappos.go": `package mappos

import "fmt"

// Keys leaks map order into the returned slice: violation.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Dump prints in map order: violation.
func Dump(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}
`,
	"mapneg/mapneg.go": `package mapneg

import "sort"

// Keys sorts after collecting: fine.
func Keys(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Sum folds order-independently: fine.
func Sum(m map[string]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// Local appends to a slice scoped inside the loop body: fine.
func Local(m map[string][]int) int {
	n := 0
	for _, vs := range m {
		var tmp []int
		tmp = append(tmp, vs...)
		n += len(tmp)
	}
	return n
}
`,
	"ignored/ignored.go": `package ignored

import "fmt"

// Keys is suppressed explicitly; the directive stays grep-able.
func Keys(m map[string]int) []string {
	var out []string
	//lint:ignore mapdeterminism the caller sorts the keys
	for k := range m {
		out = append(out, k)
	}
	return out
}

// Dump is suppressed for a different analyzer, so it still fires.
func Dump(m map[string]int) {
	//lint:ignore lockcheck the directive names another analyzer
	for k, v := range m {
		fmt.Println(k, v)
	}
}
`,
}

var (
	fixtureOnce sync.Once
	fixturePkgs map[string]*Package
	fixtureErr  error
)

// loadFixtures materializes the fixture module once per test binary.
func loadFixtures(t *testing.T) map[string]*Package {
	t.Helper()
	fixtureOnce.Do(func() {
		dir, err := os.MkdirTemp("", "vitallint-fixtures")
		if err != nil {
			fixtureErr = err
			return
		}
		if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module fixture\n\ngo 1.22\n"), 0o644); err != nil {
			fixtureErr = err
			return
		}
		for rel, src := range fixtures {
			path := filepath.Join(dir, filepath.FromSlash(rel))
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				fixtureErr = err
				return
			}
			if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
				fixtureErr = err
				return
			}
		}
		loader, err := NewLoader(dir)
		if err != nil {
			fixtureErr = err
			return
		}
		pkgs, err := loader.Load("./...")
		if err != nil {
			fixtureErr = err
			return
		}
		fixturePkgs = map[string]*Package{}
		for _, p := range pkgs {
			fixturePkgs[filepath.Base(p.Dir)] = p
		}
	})
	if fixtureErr != nil {
		t.Fatalf("loading fixtures: %v", fixtureErr)
	}
	return fixturePkgs
}

// runOn applies one analyzer to one fixture package.
func runOn(t *testing.T, analyzer *Analyzer, fixture string) []Diagnostic {
	t.Helper()
	pkg, ok := loadFixtures(t)[fixture]
	if !ok {
		t.Fatalf("no fixture package %q", fixture)
	}
	return Run([]*Package{pkg}, []*Analyzer{analyzer})
}

func wantFindings(t *testing.T, diags []Diagnostic, substrings ...string) {
	t.Helper()
	if len(diags) != len(substrings) {
		t.Fatalf("got %d findings, want %d:\n%s", len(diags), len(substrings), renderAll(diags))
	}
	for i, want := range substrings {
		if !strings.Contains(diags[i].Message, want) {
			t.Errorf("finding %d = %q, want substring %q", i, diags[i].Message, want)
		}
	}
}

func renderAll(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString(d.String())
		b.WriteString("\n")
	}
	return b.String()
}

func TestLockCheck(t *testing.T) {
	wantFindings(t, runOn(t, LockCheck, "lockpos"), `accesses "n"`)
	wantFindings(t, runOn(t, LockCheck, "lockneg"))
}

func TestMapDeterminism(t *testing.T) {
	wantFindings(t, runOn(t, MapDeterminism, "mappos"),
		`appends to "out" without sorting`,
		`printing inside range over map`)
	wantFindings(t, runOn(t, MapDeterminism, "mapneg"))
}

func TestIgnoreDirective(t *testing.T) {
	// The appending loop's finding is suppressed; the printing loop's is
	// not (its directive names a different analyzer).
	diags := Run([]*Package{loadFixtures(t)["ignored"]}, All())
	wantFindings(t, diags, "printing inside range over map")
}

func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 5 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v", len(all), err)
	}
	two, err := ByName("lockcheck, mapdeterminism")
	if err != nil || len(two) != 2 {
		t.Fatalf("ByName subset failed: %v", err)
	}
	if _, err := ByName("nosuch"); err == nil {
		t.Fatal("unknown analyzer accepted")
	}
}
