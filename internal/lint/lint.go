// Package lint is vitallint's zero-dependency static-analysis driver: a
// small analyzer framework built only on the standard library's go/ast,
// go/parser and go/types (no golang.org/x/tools import, so it builds
// offline), plus the project-specific analyzers that guard ViTAL's
// domain invariants.
//
// Analyzers come in two shapes. Per-package analyzers (Run) see one
// type-checked package at a time. Whole-program analyzers (RunProgram) see
// every loaded package plus a type-aware cross-package call graph
// (callgraph.go), which is what the concurrency checks need: a deadlock is
// a property of the lock-acquisition order across internal/sched,
// internal/telemetry, internal/memvirt and internal/interconnect, not of
// any one function.
//
// The analyzers encode properties the rest of the repo depends on but the
// compiler cannot check:
//
//   - lockcheck: exported methods on mutex-bearing types must hold the
//     mutex before touching guarded fields (fields declared after the
//     mutex — the convention internal/sched and internal/memvirt follow).
//   - mapdeterminism: iteration over a Go map is randomized; loops that
//     feed ordered results (slices, printed output) from a map range must
//     sort, or placement decisions and published figure outputs silently
//     change between runs.
//   - lockorder: the cross-package lock-acquisition graph must be acyclic,
//     and no lock may be held across a blocking operation (channel send,
//     select without default, http.ResponseWriter write, Flush, Sleep).
//   - eventexhaustive: switches over enum-like constant sets (the audit
//     EventKind and friends) must cover every declared constant or carry
//     a default, so new kinds cannot be silently dropped.
//   - metrichygiene: vital_* metric names must be declared once with one
//     type and help string, follow the Prometheus suffix conventions, and
//     every reference must resolve to a declaration.
//
// Each one pays for itself: all but lockorder led to code fixes when they
// landed, and lockorder guards the lock discipline every concurrent layer
// relies on. Every finding is an error.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"sort"
	"strings"
)

// Analyzer is one static check. Exactly one of Run (per-package) or
// RunProgram (whole-program) is set.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore comments.
	Name string
	// Doc is a one-line description.
	Doc string
	// Run inspects one package and reports diagnostics through the pass.
	Run func(*Pass)
	// RunProgram inspects the whole program (all loaded packages plus the
	// call graph) and reports diagnostics through the pass.
	RunProgram func(*ProgramPass)
}

// Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Program is the whole-program view handed to RunProgram analyzers: every
// loaded package (sharing one FileSet, so positions are comparable) plus
// the lazily built cross-package call graph.
type Program struct {
	Packages []*Package
	Fset     *token.FileSet

	graph *CallGraph
}

// NewProgram assembles a program over the loaded packages.
func NewProgram(pkgs []*Package) *Program {
	p := &Program{Packages: pkgs}
	if len(pkgs) > 0 {
		p.Fset = pkgs[0].Fset
	} else {
		p.Fset = token.NewFileSet()
	}
	return p
}

// CallGraph returns the program's call graph, building it on first use.
func (p *Program) CallGraph() *CallGraph {
	if p.graph == nil {
		p.graph = BuildCallGraph(p.Packages)
	}
	return p.graph
}

// ProgramPass carries the whole program through one analyzer.
type ProgramPass struct {
	Analyzer *Analyzer
	Program  *Program

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *ProgramPass) Reportf(pos token.Pos, format string, args ...interface{}) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Program.Fset.Position(pos),
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

// String renders the diagnostic in the conventional file:line:col form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// All returns every project analyzer.
func All() []*Analyzer {
	return []*Analyzer{
		LockCheck, MapDeterminism,
		LockOrder, EventExhaustive, MetricHygiene,
	}
}

// ByName resolves a comma-separated analyzer list; an empty list means all.
func ByName(names string) ([]*Analyzer, error) {
	if names == "" {
		return All(), nil
	}
	byName := map[string]*Analyzer{}
	for _, a := range All() {
		byName[a.Name] = a
	}
	var out []*Analyzer
	for _, n := range strings.Split(names, ",") {
		n = strings.TrimSpace(n)
		a, ok := byName[n]
		if !ok {
			return nil, fmt.Errorf("lint: unknown analyzer %q", n)
		}
		out = append(out, a)
	}
	return out, nil
}

// Run applies the analyzers to every package and returns the findings
// sorted by position. Per-package analyzers run once per package;
// whole-program analyzers run once over all packages (with the shared call
// graph). Findings on lines carrying (or directly following) a
// "//lint:ignore <analyzer> <reason>" comment are dropped — every
// suppression is grep-able, so "fix, don't suppress" stays reviewable. A
// directive without a reason, or naming no known analyzer, is itself a
// finding: an unexplained suppression, or one that suppresses nothing, is
// exactly the drift the linter exists to stop.
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	ignores := ignoreSet{}
	for _, pkg := range pkgs {
		collectIgnores(pkg, ignores, &diags)
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			if a.Run == nil {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &pkgDiags,
			}
			a.Run(pass)
		}
		diags = append(diags, pkgDiags...)
	}
	prog := NewProgram(pkgs)
	for _, a := range analyzers {
		if a.RunProgram == nil {
			continue
		}
		pass := &ProgramPass{Analyzer: a, Program: prog, diags: &diags}
		a.RunProgram(pass)
	}
	kept := diags[:0]
	for _, d := range diags {
		if ignores.match(d) {
			continue
		}
		kept = append(kept, d)
	}
	diags = kept
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i].Pos, diags[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if diags[i].Analyzer != diags[j].Analyzer {
			return diags[i].Analyzer < diags[j].Analyzer
		}
		return diags[i].Message < diags[j].Message
	})
	return diags
}

// ignoreSet maps file:line to the analyzer names suppressed there.
type ignoreSet map[string]map[string]bool

func (s ignoreSet) match(d Diagnostic) bool {
	if d.Analyzer == ignoreAnalyzerName {
		return false // malformed-directive findings cannot self-suppress
	}
	for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, line)
		if s[key][d.Analyzer] {
			return true
		}
	}
	return false
}

const (
	ignoreDirective    = "lint:ignore"
	ignoreAnalyzerName = "ignoredirective"
)

// collectIgnores scans a package's comments for suppression directives of
// the form "//lint:ignore <analyzer>[,<analyzer>] <reason>". Malformed
// directives (no analyzer, no reason, or an analyzer All does not name)
// are reported as findings rather than silently not suppressing.
func collectIgnores(pkg *Package, set ignoreSet, diags *[]Diagnostic) {
	report := func(pos token.Pos, format string, args ...interface{}) {
		*diags = append(*diags, Diagnostic{
			Pos:      pkg.Fset.Position(pos),
			Analyzer: ignoreAnalyzerName,
			Message:  fmt.Sprintf(format, args...),
		})
	}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(strings.TrimPrefix(c.Text, "//"), "/*")
				text = strings.TrimSpace(strings.TrimSuffix(text, "*/"))
				rest, ok := strings.CutPrefix(text, ignoreDirective)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					report(c.Pos(), "lint:ignore without an analyzer name (want //lint:ignore <analyzer> <reason>)")
					continue
				}
				if len(fields) < 2 {
					report(c.Pos(), "lint:ignore %s without a reason (want //lint:ignore <analyzer> <reason>)", fields[0])
					continue
				}
				p := pkg.Fset.Position(c.Pos())
				key := fmt.Sprintf("%s:%d", p.Filename, p.Line)
				if set[key] == nil {
					set[key] = map[string]bool{}
				}
				for _, n := range strings.Split(fields[0], ",") {
					if !slices.ContainsFunc(All(), func(a *Analyzer) bool { return a.Name == n }) {
						report(c.Pos(), "lint:ignore names unknown analyzer %q (vitallint -list names them)", n)
						continue
					}
					set[key][n] = true
				}
			}
		}
	}
}
