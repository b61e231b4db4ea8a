// Command vitalgw runs the admission gateway in front of a vitald
// backend: bearer-token tenant auth, per-tenant token-bucket rate
// limiting, singleflight compile dedup keyed by the content-addressed
// design key, and forwarding into the backend's bounded async deploy
// pipeline.
//
// Usage:
//
//	vitald  -listen 127.0.0.1:8080 &
//	vitalgw -listen 127.0.0.1:8081 -backend http://127.0.0.1:8080 \
//	        -tokens s3cret:alice,t0ken:bob -rate 50 -burst 100
//
// Tenants then submit with
//
//	curl -H 'Authorization: Bearer s3cret' \
//	     -d '{"design":"lenet-S","priority":"latency"}' \
//	     http://127.0.0.1:8081/submit
package main

import (
	"flag"
	"log"
	"net/http"
	"strings"
	"time"

	"vital/internal/gateway"
	"vital/internal/telemetry"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8081", "listen address")
	backend := flag.String("backend", "http://127.0.0.1:8080", "vitald backend base URL")
	tokens := flag.String("tokens", "", "comma-separated token:tenant pairs (e.g. s3cret:alice,t0ken:bob)")
	rate := flag.Float64("rate", 50, "per-tenant sustained submissions per second (0 = unlimited)")
	burst := flag.Int("burst", 100, "per-tenant burst size")
	sloTarget := flag.Float64("slo-target", 0.999, "per-tenant availability objective (fraction of non-5xx responses)")
	sloWindow := flag.Duration("slo-window", time.Hour, "rolling error-budget window")
	scrapeInterval := flag.Duration("scrape-interval", 5*time.Second, "time-series scrape period feeding GET /query (0 disables history)")
	flag.Parse()

	creds := map[string]string{}
	for _, pair := range strings.Split(*tokens, ",") {
		pair = strings.TrimSpace(pair)
		if pair == "" {
			continue
		}
		tok, tenant, ok := strings.Cut(pair, ":")
		if !ok || tok == "" || tenant == "" {
			log.Fatalf("vitalgw: bad -tokens entry %q: want token:tenant", pair)
		}
		creds[tok] = tenant
	}
	if len(creds) == 0 {
		log.Fatalf("vitalgw: no tenants: pass -tokens token:tenant[,token:tenant...]")
	}

	gw, err := gateway.New(gateway.Config{
		Backend:   *backend,
		Tokens:    creds,
		Rate:      *rate,
		Burst:     *burst,
		Logf:      log.Printf,
		SLOTarget: *sloTarget,
		SLOWindow: *sloWindow,
	})
	if err != nil {
		log.Fatalf("vitalgw: %v", err)
	}
	if *scrapeInterval > 0 {
		// The gateway stores only its own registry; GET /query federates
		// the backend's history at query time rather than scraping it here.
		telemetry.RegisterRuntimeMetrics(gw.Reg)
		go gw.DB.Poll(gw.Reg, *scrapeInterval, nil)
	}
	log.Printf("admission gateway for %s listening on %s (%d tenants, %.0f/s burst %d, SLO %.4g over %s)",
		*backend, *listen, len(creds), *rate, *burst, *sloTarget, *sloWindow)
	log.Fatal(http.ListenAndServe(*listen, gw.Handler()))
}
