// Command vitallint runs ViTAL's domain-aware static analyzers over the
// repository. It is built entirely on the standard library (go/ast,
// go/parser, go/types), so it needs no network access and no tool
// dependencies — `go run ./cmd/vitallint ./...` works on a clean checkout.
//
// Usage:
//
//	vitallint ./...
//	vitallint -analyzers lockorder,eventexhaustive ./internal/sched
//	vitallint -baseline .vitallint-baseline.json ./...
//	vitallint -list
//
// Findings print in the conventional file:line:col text form. -github adds
// ::error workflow annotations (enabled automatically when GITHUB_ACTIONS
// is set). -baseline filters findings through a checked-in baseline file;
// -write-baseline regenerates that file from the current findings.
//
// Exit status: 0 when clean, 1 when findings were reported, 2 on usage or
// load errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"vital/internal/lint"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vitallint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	names := fs.String("analyzers", "", "comma-separated analyzers to run (default: all)")
	list := fs.Bool("list", false, "list available analyzers and exit")
	github := fs.Bool("github", os.Getenv("GITHUB_ACTIONS") != "", "emit GitHub workflow annotations (default: on under GITHUB_ACTIONS)")
	baselinePath := fs.String("baseline", "", "filter findings through this baseline file")
	writeBaseline := fs.Bool("write-baseline", false, "regenerate the -baseline file from current findings and exit 0")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: vitallint [-analyzers a,b] [-baseline file [-write-baseline]] [-github] [-list] <packages>")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *writeBaseline && *baselinePath == "" {
		fmt.Fprintln(stderr, "vitallint: -write-baseline requires -baseline")
		return 2
	}
	analyzers, err := lint.ByName(*names)
	if err != nil {
		fmt.Fprintln(stderr, "vitallint:", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		fs.Usage()
		return 2
	}
	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "vitallint:", err)
		return 2
	}
	loader, err := lint.NewLoader(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "vitallint:", err)
		return 2
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintln(stderr, "vitallint:", err)
		return 2
	}
	if len(pkgs) == 0 {
		// A typo'd path must not read as a clean run.
		fmt.Fprintf(stderr, "vitallint: no packages match %v\n", patterns)
		return 2
	}
	root := loader.ModuleDir
	diags := lint.Run(pkgs, analyzers)

	if *writeBaseline {
		f, err := os.Create(*baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, "vitallint:", err)
			return 2
		}
		werr := lint.WriteBaseline(f, root, diags)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(stderr, "vitallint:", werr)
			return 2
		}
		fmt.Fprintf(stderr, "vitallint: wrote %d finding(s) to %s\n", len(diags), *baselinePath)
		return 0
	}

	var suppressed []lint.Diagnostic
	if *baselinePath != "" {
		base, err := lint.LoadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(stderr, "vitallint:", err)
			return 2
		}
		diags, suppressed = base.Filter(root, diags)
	}

	for _, d := range diags {
		fmt.Fprintln(stdout, d)
	}
	if *github {
		for _, d := range diags {
			// ::error file=...,line=...,col=...::message — GitHub renders
			// these as inline PR annotations.
			fmt.Fprintf(stderr, "::error file=%s,line=%d,col=%d::%s: %s\n",
				relOrSelf(root, d.Pos.Filename), d.Pos.Line, d.Pos.Column, d.Analyzer, escapeAnnotation(d.Message))
		}
	}
	if len(suppressed) > 0 {
		fmt.Fprintf(stderr, "vitallint: %d finding(s) suppressed by baseline %s\n", len(suppressed), *baselinePath)
	}
	if len(diags) > 0 {
		fmt.Fprintf(stderr, "vitallint: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1
	}
	return 0
}

// relOrSelf renders path relative to the module root for annotations.
func relOrSelf(root, path string) string {
	if rel, ok := strings.CutPrefix(path, root+string(os.PathSeparator)); ok {
		return rel
	}
	return path
}

// escapeAnnotation applies GitHub's workflow-command data escaping.
func escapeAnnotation(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}
