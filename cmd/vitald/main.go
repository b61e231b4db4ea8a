// Command vitald runs a ViTAL system controller over a simulated FPGA
// cluster as an HTTP daemon. It pre-compiles a selection of Table 2
// benchmark designs into the bitstream database so clients can deploy them
// immediately.
//
// Usage:
//
//	vitald -listen :8080 -compile lenet-S,lenet-M,nin-M
//	vitald -fault 2:degrade          # start with board 2 degraded
package main

import (
	"flag"
	"log"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"vital/internal/core"
	"vital/internal/sched"
	"vital/internal/telemetry"
	"vital/internal/telemetry/tsdb"
	"vital/internal/workload"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8080", "listen address")
	compile := flag.String("compile", "lenet-S,lenet-M", "comma-separated benchmark designs (name-S/M/L) to pre-compile")
	verifyOnDeploy := flag.Bool("verify-on-deploy", false, "re-check architectural invariants after every deployment and roll back violators")
	fault := flag.String("fault", "", "initial fault plan, comma-separated board:kind pairs (e.g. 2:fail,3:degrade)")
	enablePprof := flag.Bool("pprof", false, "expose Go runtime profiles under /debug/pprof/")
	alertInterval := flag.Duration("alert-interval", 15*time.Second, "alert-rule evaluation period (0 disables the ticker; GET /alerts still evaluates on demand)")
	defragMoves := flag.Int("defrag-moves", 0, "blocks the incremental defragmenter may relocate per alert evaluation while fragmentation_high fires (0 disables)")
	queueDepth := flag.Int("queue-depth", 0, "async deploy queue capacity per priority class (0 = default 256)")
	queueWorkers := flag.Int("queue-workers", 0, "async deploy worker count (0 = default 4)")
	traceLimit := flag.Int("trace-limit", 0, "recent traces retained for GET /trace/{id} (0 = default 256)")
	scrapeInterval := flag.Duration("scrape-interval", 5*time.Second, "time-series scrape period feeding GET /query (0 disables history)")
	tsdbRetention := flag.Duration("tsdb-retention", 0, "time-series retention horizon (0 = default 2h)")
	flag.Parse()

	stack := core.NewStackWithOptions(nil, sched.Options{
		VerifyOnDeploy: *verifyOnDeploy,
		DefragMoves:    *defragMoves,
		QueueDepth:     *queueDepth,
		QueueWorkers:   *queueWorkers,
		TraceLimit:     *traceLimit,
	})
	for _, name := range strings.Split(*compile, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		spec, err := workload.ParseSpec(name)
		if err != nil {
			log.Fatalf("vitald: %v", err)
		}
		log.Printf("compiling %s ...", name)
		app, err := stack.Compile(workload.BuildDesign(spec))
		if err != nil {
			log.Fatalf("vitald: compiling %s: %v", name, err)
		}
		log.Printf("compiled %s: %d virtual blocks, Fmax %.0f MHz, %v",
			name, app.Blocks(), app.FminMHz, app.Times.Total().Round(1e6))
	}
	if *fault != "" {
		plan, err := sched.ParseFaultPlan(*fault)
		if err != nil {
			log.Fatalf("vitald: %v", err)
		}
		evs, err := stack.Controller.ApplyFaultPlan(plan)
		if err != nil {
			log.Fatalf("vitald: applying fault plan: %v", err)
		}
		for _, ev := range evs {
			log.Printf("fault injected: board %d → %s (%d apps affected)", ev.Board, ev.Health, len(ev.Apps))
		}
	}
	if *alertInterval > 0 {
		// Background alert evaluation: rules with a For duration need
		// periodic sampling to move pending → firing without a client
		// polling GET /alerts.
		go func() {
			ticker := time.NewTicker(*alertInterval)
			defer ticker.Stop()
			for range ticker.C {
				stack.Controller.EvalAlerts()
			}
		}()
	}
	if *tsdbRetention > 0 {
		// Retention is a flag but the store is built by the controller, so
		// rebuild it with the explicit horizon before any scrape runs.
		stack.Controller.TSDB = tsdb.New(tsdb.Options{Retention: *tsdbRetention})
		stack.Controller.TSDB.Register(stack.Controller.Reg)
	}
	if *scrapeInterval > 0 {
		// The scrape loop is what turns the point-in-time registry into
		// queryable history: without it GET /query answers empty.
		telemetry.RegisterRuntimeMetrics(stack.Controller.Reg)
		go stack.Controller.TSDB.Poll(stack.Controller.Reg, *scrapeInterval, nil)
	}
	log.Printf("system controller listening on %s", *listen)
	// Access-logged handler: every request logs method, path, status, bytes
	// and latency; per-route latency histograms land in the registry and
	// are scraped via GET /metrics?format=prometheus.
	var handler http.Handler = core.NewStackHandler(stack)
	if *enablePprof {
		// Mount the profile handlers on an explicit outer mux rather than
		// importing net/http/pprof for its DefaultServeMux side effect, so
		// profiling stays strictly opt-in.
		mux := http.NewServeMux()
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		mux.Handle("/", handler)
		handler = mux
		log.Printf("pprof enabled at /debug/pprof/")
	}
	log.Fatal(http.ListenAndServe(*listen, telemetry.AccessLog(log.Printf, handler)))
}
