// Command vitalscenario runs the end-to-end scenarios that prove the
// in-process two-tier stack — a backend (vitald's stack) behind an
// admission gateway (vitalgw), each on a loopback listener — and exits
// non-zero when an assertion fails. Each scenario boots a fresh stack.
//
//	vitalscenario obs|alerts|trace
//	vitalscenario soak [-tenants 200 -ops 300 -concurrency 24 ...]
//	vitalscenario replay -trace cmd/vitalscenario/testdata/example-trace.json [-speed 4 -check]
//
// obs, alerts and trace first compile lenet-S and deploy it over the
// backend's HTTP API, then check:
//
// obs (`make obssmoke`):
//
//  1. GET /metrics?format=prometheus parses under the strict exposition
//     validator and contains the deploy-latency histogram;
//  2. GET /traces lists the compile and deploy traces;
//  3. GET /trace/{id} returns the deploy trace with its span tree intact.
//
// alerts (`make alertsmoke`):
//
//  4. GET /placement reports the deployed app's placement quality;
//  5. an execution populates the channel-traffic series in the exposition;
//  6. a live SSE client on GET /events/stream observes the fault, the
//     evacuation and the alert transition triggered by failing the app's
//     primary board, and GET /alerts reports the board rule firing.
//
// trace (`make tracesmoke`):
//
//  7. one authenticated submit flows gateway → backend compile → async
//     queue → worker deploy, and GET /trace/{id} on the gateway returns
//     that whole journey as ONE contiguous cross-process trace;
//  8. the gateway's exposition validates strictly and carries the
//     per-tenant RED, SLO and exemplar series;
//  9. the backend is torn down and failing submits burn the tenant's
//     error budget until the multi-window burn-rate rule FIRES on
//     GET /slo.
//
// soak (`make soaksmoke` runs a short -race flavor) drives sustained
// deploy → execute → undeploy churn from many tenants over a zipf-skewed
// Table 2 design mix and asserts the admission tier's contract, one
// check* method each: (1) compile dedup, (2) admission latency, (3)
// backpressure, (4) audit integrity and (5) series lifecycle.
//
// replay plays a recorded tenant mix and reports the run's trajectory —
// utilization, fragmentation index, queue depth and per-tenant SLO
// budget — as curves from an embedded TSDB that scrapes both tiers
// throughout. The trace is JSON (see testdata/example-trace.json):
//
//	{
//	  "name": "example-mix",
//	  "events": [
//	    {"at_ms": 0, "tenant": "alice", "design": "lenet-S",
//	     "priority": "latency", "mem_quota_bytes": 0, "lifetime_ms": 2500},
//	    ...
//	  ]
//	}
//
// Each event is one tenant arrival: at at_ms (scaled by -speed) the
// tenant submits the design through the gateway, waits for the deploy
// ticket to complete, holds the deployment for lifetime_ms, then
// undeploys. With -check (`make replaysmoke`) it asserts that every
// *_total series is monotone, the utilization curve is non-empty with a
// nonzero peak, and both tiers' expositions — vital_tsdb_* self-series
// included — pass the strict validator.
//
// Exit status: 0 when every assertion held, 1 when one failed, 2 on a
// usage error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
)

// parser reads a scenario's flags and returns the scenario ready to run,
// or a usage error it has already reported. Running it returns the
// scenario's failures.
type parser func(args []string) (func() []string, error)

var scenarios = map[string]parser{
	"obs":    obsScenario("obs", obs),
	"alerts": obsScenario("alerts", alerts),
	"trace":  obsScenario("trace", trace),
	"soak":   parseSoak,
	"replay": parseReplay,
}

func main() {
	log.SetFlags(0)
	if len(os.Args) < 2 || scenarios[os.Args[1]] == nil {
		fmt.Fprintln(os.Stderr, "usage: vitalscenario obs|alerts|trace|soak|replay [flags]")
		os.Exit(2)
	}
	name := os.Args[1]
	log.SetPrefix("vitalscenario " + name + ": ")
	scenario, err := scenarios[name](os.Args[2:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		os.Exit(2)
	}
	failures := scenario()
	for _, f := range failures {
		log.Printf("FAIL: %s", f)
	}
	if len(failures) > 0 {
		os.Exit(1)
	}
	log.Printf("PASS: all %s assertions held", name)
}

// newFlags returns a scenario's flag set, which reports a parse error to
// its caller rather than exiting.
func newFlags(name string) *flag.FlagSet {
	return flag.NewFlagSet("vitalscenario "+name, flag.ContinueOnError)
}

// invalid reports a flag value the scenario rejects the way fs reports
// one it cannot parse: the message, then the usage.
func invalid(fs *flag.FlagSet, format string, v ...interface{}) error {
	err := fmt.Errorf(format, v...)
	fmt.Fprintln(fs.Output(), err)
	fs.Usage()
	return err
}
