// Package gateway is the admission tier in front of a ViTAL backend
// (vitald): it authenticates tenants, applies per-tenant token-bucket
// rate limits, compiles each tenant's instance of a design on the backend
// once, and forwards deployments into the backend's bounded async
// pipeline. The backend owns the design key and coalesces concurrent
// compiles of one design, so N tenants submitting the same Table 2 design
// pay for one synthesis; everyone else shares the cached bitstream via a
// rebranding clone.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"vital/internal/httpapi"
	"vital/internal/telemetry"
	"vital/internal/telemetry/tsdb"
	"vital/internal/workload"
)

// Config configures a Gateway.
type Config struct {
	// Backend is the base URL of the vitald backend, e.g.
	// "http://127.0.0.1:9000".
	Backend string
	// Tokens maps bearer tokens to tenant names (static credential set;
	// the admission tier's auth is pluggable in spirit, a token map in
	// practice).
	Tokens map[string]string
	// Rate and Burst shape each tenant's token bucket: Rate submissions
	// per second sustained, Burst extra in a spike. Zero disables
	// rate limiting.
	Rate  float64
	Burst int
	// Client overrides the backend HTTP client (nil uses a 30 s-timeout
	// default).
	Client *http.Client
	// Logf, when set, receives an access-log line per request.
	Logf func(format string, v ...interface{})
	// SLOTarget is the per-tenant availability objective — the fraction
	// of tenant requests that must not fail server-side (5xx). Zero
	// selects 0.999.
	SLOTarget float64
	// SLOWindow is the rolling error-budget window. Zero selects 1h.
	SLOWindow time.Duration
	// BurnRules overrides the multi-window burn-rate alert ladder (nil
	// selects telemetry.DefaultBurnRateRules).
	BurnRules []telemetry.BurnRateRule
}

// Gateway is the admission front door. Create with New, serve Handler().
type Gateway struct {
	cfg    Config
	client *http.Client
	// Reg is the gateway's own telemetry registry (vital_gateway_* and
	// the per-tenant vital_tenant_* RED series).
	Reg *telemetry.Registry
	// Tracer records the gateway's trace segments; submits start a root
	// span here and the backend continues it via traceparent.
	Tracer *telemetry.Tracer
	// Alerts evaluates the per-tenant SLO burn-rate rules.
	Alerts *telemetry.AlertEngine
	// DB is the gateway's embedded time-series store: vitalgw's poller
	// scrapes Reg into it, and GET /query federates it with the backend's
	// store under a tier label.
	DB *tsdb.DB
	// slos holds one error-budget tracker per tenant.
	slos *telemetry.SLOSet

	limits *limiterSet

	admitHist    *telemetry.Histogram
	coalesceHits *telemetry.Counter
	rateLimited  *telemetry.Counter
	authFailures *telemetry.Counter
	backendShed  *telemetry.Counter

	// mu guards the field below.
	mu sync.Mutex
	// apps maps each per-tenant instance the backend has compiled
	// ("<tenant>.<design>") to the design key its /compile answered, so
	// repeat submissions skip the compile round trip.
	apps map[string]string
}

// New builds a gateway in front of the backend at cfg.Backend, which must
// be an http or https URL with a host. New does not contact the backend:
// an unreachable one answers requests with 502.
func New(cfg Config) (*Gateway, error) {
	if u, err := url.Parse(cfg.Backend); err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return nil, fmt.Errorf("gateway: backend %q is not an http(s) URL with a host", cfg.Backend)
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	g := &Gateway{
		cfg:    cfg,
		client: client,
		Reg:    telemetry.NewRegistry(),
		Tracer: telemetry.NewTracer(0),
		Alerts: telemetry.NewAlertEngine(nil),
		DB:     tsdb.New(tsdb.Options{}),
		limits: newLimiterSet(cfg.Rate, cfg.Burst),
		apps:   map[string]string{},
	}
	objective := telemetry.SLOObjective{Target: cfg.SLOTarget, Window: cfg.SLOWindow}
	if objective.Target == 0 {
		objective.Target = 0.999
	}
	if objective.Window == 0 {
		objective.Window = time.Hour
	}
	rules := cfg.BurnRules
	if rules == nil {
		rules = telemetry.DefaultBurnRateRules()
	}
	g.slos = telemetry.NewSLOSet(objective, rules)
	g.registerSLOs()
	g.Reg.CounterFunc("vital_trace_evicted_total", "Trace segments overwritten by the bounded trace ring — nonzero means GET /trace/{id} answers may be partial.", func() float64 {
		return float64(g.Tracer.Evicted())
	})
	g.DB.Register(g.Reg)

	g.admitHist = g.Reg.Histogram("vital_gateway_admission_seconds",
		"Wall time of POST /submit: auth, rate limit, instance compile (or coalesce), enqueue.", nil)
	g.coalesceHits = g.Reg.Counter("vital_gateway_coalesce_hits_total",
		"Submissions whose backend compile coalesced onto another caller's in-flight compile of the same design.")
	g.rateLimited = g.Reg.Counter("vital_gateway_rate_limited_total",
		"Submissions rejected 429 by the per-tenant token bucket.")
	g.authFailures = g.Reg.Counter("vital_gateway_auth_failures_total",
		"Requests rejected 401 for a missing or unknown bearer token.")
	g.backendShed = g.Reg.Counter("vital_gateway_backend_shed_total",
		"Deploy forwards the backend's bounded queue shed with 429.")
	return g, nil
}

// tenant resolves the request's bearer token; "" means unauthenticated.
func (g *Gateway) tenant(r *http.Request) string {
	tok, ok := strings.CutPrefix(r.Header.Get("Authorization"), "Bearer ")
	if !ok {
		return ""
	}
	return g.cfg.Tokens[strings.TrimSpace(tok)]
}

// submitRequest is the POST /submit body.
type submitRequest struct {
	// Design is a Table 2 workload spec, "<benchmark>-<S|M|L>".
	Design string `json:"design"`
	// Priority selects the backend queue class, latency (default) or
	// batch.
	Priority string `json:"priority"`
	// MemQuotaBytes is passed through to the deploy (0 = backend
	// default).
	MemQuotaBytes uint64 `json:"mem_quota_bytes"`
}

// submitResponse is the 202 POST /submit answer.
type submitResponse struct {
	Tenant    string `json:"tenant"`
	App       string `json:"app"`
	Design    string `json:"design"`
	DesignKey string `json:"design_key"`
	// ColdCompile reports that this submission made the tenant's first
	// backend compile round trip for the design — a full compile, a
	// coalesced wait or a cache-hit rebrand; false is the steady-state
	// path the p99 admission target applies to.
	ColdCompile bool `json:"cold_compile"`
	// Coalesced reports that the backend compile waited on another
	// caller's in-flight compile of the same design rather than running
	// its own.
	Coalesced bool            `json:"coalesced"`
	Ticket    json.RawMessage `json:"ticket"`
	// TraceID names the submit's end-to-end trace: GET /trace/{id} on
	// the gateway reassembles gateway, backend compile, queue-wait and
	// worker deploy spans under it.
	TraceID string `json:"trace_id,omitempty"`
}

// compileRequest is the backend's POST /compile body, and
// compileAnswer the part of its answer the gateway reads.
type (
	compileRequest struct {
		App    string `json:"app"`
		Design string `json:"design"`
	}
	compileAnswer struct {
		DesignKey string `json:"design_key"`
		Coalesced bool   `json:"coalesced"`
	}
)

// compileOnBackend asks the backend to compile spec under appName. The
// request carries ctx's span as a traceparent header, so the backend's
// compile stages land in the submit's trace.
func (g *Gateway) compileOnBackend(ctx context.Context, spec, appName string) (compileAnswer, error) {
	var ans compileAnswer
	body, _ := json.Marshal(&compileRequest{App: appName, Design: spec})
	resp, err := g.postJSON(ctx, "/compile", body)
	if err != nil {
		return ans, fmt.Errorf("gateway: backend compile of %s: %w", appName, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return ans, fmt.Errorf("gateway: backend compile of %s: %s: %s", appName, resp.Status, strings.TrimSpace(string(msg)))
	}
	if err := json.NewDecoder(resp.Body).Decode(&ans); err != nil {
		return ans, fmt.Errorf("gateway: decoding backend compile of %s: %w", appName, err)
	}
	return ans, nil
}

// postJSON POSTs a JSON body to a backend path, injecting the context's
// span (if any) as a traceparent header.
func (g *Gateway) postJSON(ctx context.Context, path string, body []byte) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, g.cfg.Backend+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	telemetry.InjectTraceParent(req.Header, telemetry.SpanFromContext(ctx))
	return g.client.Do(req)
}

// ensureInstance guarantees the tenant's named instance of the design is
// compiled on the backend and returns its design key. Only the tenant's
// first submit of the design makes the round trip (cold); the backend
// runs the full compile once per design, and serves every other instance
// from its cache, coalesced or not.
func (g *Gateway) ensureInstance(ctx context.Context, spec, appName string) (dkey string, cold, coalesced bool, err error) {
	g.mu.Lock()
	dkey, known := g.apps[appName]
	g.mu.Unlock()
	if known {
		return dkey, false, false, nil
	}
	// Concurrent duplicates for the same instance name are rare (one
	// tenant racing itself) and harmless: the backend's CompileSpec is
	// idempotent per (app, design).
	ans, err := g.compileOnBackend(ctx, spec, appName)
	if err != nil {
		return "", false, false, err
	}
	if ans.Coalesced {
		g.coalesceHits.Inc()
	}
	g.mu.Lock()
	g.apps[appName] = ans.DesignKey
	g.mu.Unlock()
	return ans.DesignKey, true, ans.Coalesced, nil
}

// handleSubmit is the admission path.
func (g *Gateway) handleSubmit(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	defer g.admitHist.ObserveSince(start)

	tenant := g.tenant(r)
	if tenant == "" {
		g.authFailures.Inc()
		httpapi.WriteError(w, http.StatusUnauthorized, fmt.Errorf("gateway: missing or unknown bearer token"))
		return
	}
	if ok, retry := g.limits.take(tenant, start); !ok {
		g.rateLimited.Inc()
		w.Header().Set("Retry-After", strconv.Itoa(int(retry/time.Second)))
		httpapi.WriteError(w, http.StatusTooManyRequests,
			fmt.Errorf("gateway: tenant %s over admission rate", tenant))
		return
	}

	var req submitRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, err)
		return
	}
	if _, err := workload.ParseSpec(req.Design); err != nil {
		httpapi.WriteError(w, http.StatusBadRequest, fmt.Errorf("gateway: %w", err))
		return
	}
	priority := req.Priority
	if priority == "" {
		priority = "latency"
	}
	if priority != "latency" && priority != "batch" {
		httpapi.WriteError(w, http.StatusBadRequest,
			fmt.Errorf("gateway: bad priority %q: want latency or batch", req.Priority))
		return
	}

	ctx := r.Context()
	appName := tenant + "." + req.Design
	isp := telemetry.StartChild(ctx, "ensure.instance", telemetry.String("app", appName))
	dkey, cold, coalesced, err := g.ensureInstance(ctx, req.Design, appName)
	if coalesced {
		isp.SetAttr("coalesced", "true")
	}
	isp.End()
	if err != nil {
		httpapi.WriteError(w, http.StatusBadGateway, err)
		return
	}

	// Hand the deployment to the backend's bounded async pipeline; a shed
	// (429) propagates to the tenant with the backend's Retry-After. The
	// traceparent on the forward links the backend's ticket segment — and
	// the worker's eventual deploy — back to this submit.
	body, _ := json.Marshal(&deployRequest{App: appName, MemQuotaBytes: req.MemQuotaBytes})
	dsp := telemetry.StartChild(ctx, "backend.enqueue", telemetry.String("app", appName))
	resp, err := g.postJSON(ctx, "/deploy?async=1&priority="+priority, body)
	dsp.End()
	if err != nil {
		httpapi.WriteError(w, http.StatusBadGateway, fmt.Errorf("gateway: backend deploy: %w", err))
		return
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
	if err != nil {
		httpapi.WriteError(w, http.StatusBadGateway, fmt.Errorf("gateway: reading backend deploy response: %w", err))
		return
	}
	if resp.StatusCode != http.StatusAccepted {
		if resp.StatusCode == http.StatusTooManyRequests {
			g.backendShed.Inc()
			if ra := resp.Header.Get("Retry-After"); ra != "" {
				w.Header().Set("Retry-After", ra)
			}
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(resp.StatusCode)
		_, _ = w.Write(raw)
		return
	}
	var ticketEnvelope struct {
		Ticket json.RawMessage `json:"ticket"`
	}
	if err := json.Unmarshal(raw, &ticketEnvelope); err != nil {
		httpapi.WriteError(w, http.StatusBadGateway, fmt.Errorf("gateway: decoding backend ticket: %w", err))
		return
	}
	httpapi.WriteJSON(w, http.StatusAccepted, submitResponse{
		Tenant:      tenant,
		App:         appName,
		Design:      req.Design,
		DesignKey:   dkey,
		ColdCompile: cold,
		Coalesced:   coalesced,
		Ticket:      ticketEnvelope.Ticket,
		TraceID:     telemetry.SpanFromContext(ctx).TraceID(),
	})
}

// authorizeApp checks the tenant owns the app it is operating on
// (instances are namespaced "<tenant>.<design>").
func (g *Gateway) authorizeApp(w http.ResponseWriter, r *http.Request, app string) (string, bool) {
	tenant := g.tenant(r)
	if tenant == "" {
		g.authFailures.Inc()
		httpapi.WriteError(w, http.StatusUnauthorized, fmt.Errorf("gateway: missing or unknown bearer token"))
		return "", false
	}
	if !strings.HasPrefix(app, tenant+".") {
		httpapi.WriteError(w, http.StatusForbidden,
			fmt.Errorf("gateway: tenant %s does not own app %q", tenant, app))
		return "", false
	}
	return tenant, true
}

// forward relays a request body to a backend POST route and copies the
// backend's status and JSON body back verbatim, carrying r's trace
// context across the hop.
func (g *Gateway) forward(w http.ResponseWriter, r *http.Request, path string, body interface{}) {
	raw, _ := json.Marshal(body)
	resp, err := g.postJSON(r.Context(), path, raw)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadGateway, fmt.Errorf("gateway: backend %s: %w", path, err))
		return
	}
	defer resp.Body.Close()
	copyResponse(w, resp)
}

// proxyGET relays a backend GET (path plus the caller's query string).
func (g *Gateway) proxyGET(w http.ResponseWriter, r *http.Request, path string) {
	url := g.cfg.Backend + path
	if r.URL.RawQuery != "" {
		url += "?" + r.URL.RawQuery
	}
	resp, err := g.client.Get(url)
	if err != nil {
		httpapi.WriteError(w, http.StatusBadGateway, fmt.Errorf("gateway: backend %s: %w", path, err))
		return
	}
	defer resp.Body.Close()
	copyResponse(w, resp)
}

// relayBufs holds the buffers copyResponse relays backend bodies through,
// so a relayed poll, execute or undeploy does not allocate io.Copy's
// fresh 32 KiB buffer.
var relayBufs = sync.Pool{New: func() any { return new([32 << 10]byte) }}

// copyResponse relays the backend's status, content type, Retry-After and
// body to w.
func copyResponse(w http.ResponseWriter, resp *http.Response) {
	if ct := resp.Header.Get("Content-Type"); ct != "" {
		w.Header().Set("Content-Type", ct)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	buf := relayBufs.Get().(*[32 << 10]byte)
	defer relayBufs.Put(buf)
	// Hiding w's ReadFrom and the body's WriteTo makes CopyBuffer use buf.
	_, _ = io.CopyBuffer(struct{ io.Writer }{w}, struct{ io.Reader }{resp.Body}, buf[:])
}

// undeployRequest and executeRequest are the tenant bodies of POST
// /undeploy and POST /execute. Once the app is authorized the gateway
// relays the decoded body as is: only the fields declared here reach the
// backend. deployRequest is the body a submit forwards to the backend's
// POST /deploy.
type (
	deployRequest struct {
		App           string `json:"app"`
		MemQuotaBytes uint64 `json:"mem_quota_bytes"`
	}
	undeployRequest struct {
		App string `json:"app"`
	}
	executeRequest struct {
		App    string `json:"app"`
		Tokens uint64 `json:"tokens"`
	}
)

// Handler returns the gateway's HTTP surface.
//
//	POST /submit    {design, priority, mem_quota_bytes} → 202 + ticket;
//	                auth via Authorization: Bearer <token>; 401 unknown
//	                token, 429 + Retry-After over the tenant's rate or on
//	                a backend queue shed, 400 bad spec/priority
//	POST /undeploy  {app} → tenant-scoped undeploy (403 across tenants)
//	POST /execute   {app, tokens} → tenant-scoped execute; the backend's
//	                status is relayed (400 over core.MaxExecuteTokens)
//	GET  /slo       → per-tenant error budgets and burn-rate alert states
//	GET  /trace/{id} → the merged cross-process trace (gateway + backend
//	                segments under one trace ID)
//	GET  /query     → federated range queries: the gateway's own stored
//	                series under tier=gateway merged with the backend's
//	                /query answer under tier=backend (same grammar as the
//	                backend route; no ?series= lists names from both tiers)
//	GET  /traces    → recent gateway trace summaries (?max=)
//	GET  /deployments, /deployments/{id}, /queue, /status, /alerts
//	                → proxied backend reads
//	GET  /metrics   → gateway registry (?format=prometheus for the text
//	                exposition)
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, telemetry.InstrumentRoute(g.Reg, g.Tracer, pattern, h))
	}
	// Tenant-facing routes additionally pass through the RED/SLO layer
	// and get a root span named after the operation.
	tenantHandle := func(pattern, op string, h http.HandlerFunc) {
		mux.Handle(pattern, telemetry.InstrumentRoute(g.Reg, g.Tracer, pattern, g.tenantRoute(pattern, op, h)))
	}

	tenantHandle("POST /submit", "submit", g.handleSubmit)

	tenantHandle("POST /undeploy", "undeploy", func(w http.ResponseWriter, r *http.Request) {
		var req undeployRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, err)
			return
		}
		if _, ok := g.authorizeApp(w, r, req.App); !ok {
			return
		}
		g.forward(w, r, "/undeploy", &req)
	})

	tenantHandle("POST /execute", "execute", func(w http.ResponseWriter, r *http.Request) {
		var req executeRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, err)
			return
		}
		if _, ok := g.authorizeApp(w, r, req.App); !ok {
			return
		}
		g.forward(w, r, "/execute", &req)
	})

	handle("GET /slo", g.handleSLO)
	handle("GET /trace/{id}", g.handleTrace)
	handle("GET /traces", g.handleTraces)
	handle("GET /query", g.handleQuery)

	handle("GET /deployments", func(w http.ResponseWriter, r *http.Request) {
		g.proxyGET(w, r, "/deployments")
	})
	handle("GET /deployments/{id}", func(w http.ResponseWriter, r *http.Request) {
		g.proxyGET(w, r, "/deployments/"+r.PathValue("id"))
	})
	handle("GET /queue", func(w http.ResponseWriter, r *http.Request) {
		g.proxyGET(w, r, "/queue")
	})
	handle("GET /status", func(w http.ResponseWriter, r *http.Request) {
		g.proxyGET(w, r, "/status")
	})
	handle("GET /alerts", func(w http.ResponseWriter, r *http.Request) {
		g.proxyGET(w, r, "/alerts")
	})

	handle("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		format, err := httpapi.QueryEnum(r, "format", "prometheus", "json", "prometheus")
		if err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, err)
			return
		}
		if format == "json" {
			httpapi.WriteJSON(w, http.StatusOK, g.Reg.Snapshot())
			return
		}
		w.Header().Set("Content-Type", telemetry.ContentType)
		_ = g.Reg.WritePrometheus(w)
	})

	var h http.Handler = mux
	// One gateway-wide request counter across every route — the federation
	// demo's rate(vital_gateway_requests_total) source. The route-level
	// detail lives in vital_http_requests_total; this series is the single
	// tier-wide throughput signal the TSDB graphs.
	h = telemetry.ObserveStatus(h, func(_ *http.Request, status int, _ time.Duration) {
		g.Reg.Counter("vital_gateway_requests_total",
			"Requests served by the gateway across all routes, by status code.",
			telemetry.L("code", strconv.Itoa(status))).Inc()
	})
	if g.cfg.Logf != nil {
		h = telemetry.AccessLog(g.cfg.Logf, h)
	}
	return h
}
