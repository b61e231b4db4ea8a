// Command vitalperf is the repository's benchmark: it boots the real
// gateway → backend stack in-process on loopback TCP, drives one of four
// seeded workloads against it, checks the outputs, and reports end-to-end
// metrics from an untraced run and per-layer metrics from a traced one.
// bench/README.md describes the workloads and every metric.
//
//	vitalperf -workload warm_churn -seed 1 -seconds 15 -trace 0
//	vitalperf -all -traced -runs 5 -out bench/out/run.json
//	vitalperf -compare bench/out/run-a.json bench/out/run-b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

func main() {
	workload := flag.String("workload", "", "run this one workload and print its result as one JSON line (the acceptance harness's entry)")
	seed := flag.Int64("seed", 1, "workload generator seed")
	seconds := flag.Int("seconds", defaultSeconds, "measured window of one run, seconds")
	trace := flag.Int("trace", 0, "with -workload: 1 runs traced and prints the per-layer metrics, 0 untraced and the end-to-end metrics")
	all := flag.Bool("all", false, "run every workload and print every metric")
	traced := flag.Bool("traced", false, "with -all: add one traced run per workload (per-layer metrics, ladder, trace files)")
	runs := flag.Int("runs", 1, "with -all: untraced runs per workload, seeds -seed, -seed+1, …")
	out := flag.String("out", "", "with -all: write the report as JSON to this file")
	traceDir := flag.String("trace-dir", filepath.Join("bench", "out"), "where a traced run writes trace-<workload>.jsonl")
	compare := flag.Bool("compare", false, "compare two report files: vitalperf -compare a.json b.json")
	contract := flag.Bool("benchmark-json", false, "print BENCHMARK.json as generated from the metric tables")
	flag.Parse()

	var err error
	switch {
	case *contract:
		var doc []byte
		if doc, err = benchmarkJSON(); err == nil {
			_, err = os.Stdout.Write(doc)
		}
	case *compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("usage: vitalperf -compare a.json b.json")
			break
		}
		err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	case *workload != "":
		err = runOne(*workload, *seed, *seconds, *trace == 1, *traceDir)
	case *all:
		err = runAll(*seed, *seconds, *runs, *traced, *traceDir, *out)
	default:
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "vitalperf:", err)
		os.Exit(1)
	}
}

// runOne is the acceptance harness's entry: one workload, one run, the
// human-readable report on standard error and one JSON object as the last
// line of standard output.
func runOne(name string, seed int64, seconds int, traced bool, traceDir string) error {
	r, err := runWorkload(name, full(time.Duration(seconds)*time.Second), seed, traced)
	if err != nil {
		return err
	}
	printResult(os.Stderr, r)
	if traced {
		if err := writeSpans(filepath.Join(traceDir, "trace-"+name+".jsonl"), r.spans); err != nil {
			return err
		}
	}
	line, err := r.contractLine()
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if len(r.Failures) > 0 {
		return fmt.Errorf("%s: %d correctness checks failed", name, len(r.Failures))
	}
	return nil
}

// runAll runs every workload and prints and optionally writes the report.
func runAll(seed int64, seconds, runs int, traced bool, traceDir, out string) error {
	rep := newReport(seed, seconds)
	sz := full(time.Duration(seconds) * time.Second)
	failed := 0
	for _, w := range workloadDefs {
		for i := 0; i < runs+1; i++ {
			isTraced := i == runs
			if isTraced && !traced {
				break
			}
			s := seed + int64(i)
			if isTraced {
				s = seed
			}
			r, err := runWorkload(w.Name, sz, s, isTraced)
			if err != nil {
				return err
			}
			printResult(os.Stdout, r)
			if isTraced {
				if err := writeSpans(filepath.Join(traceDir, "trace-"+w.Name+".jsonl"), r.spans); err != nil {
					return err
				}
			}
			failed += len(r.Failures)
			rep.Runs = append(rep.Runs, r)
		}
	}
	if out != "" {
		doc, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(doc, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing report: %w", err)
		}
	}
	if failed > 0 {
		return fmt.Errorf("%d correctness checks failed", failed)
	}
	return nil
}
