package core

import (
	"encoding/json"
	"errors"
	"net/http"

	"vital/internal/httpapi"
	"vital/internal/sched"
	"vital/internal/telemetry"
)

// compileResponse is the body POST /compile answers with. Coalesced
// reports that the call waited on another caller's in-flight compile of
// the same design and was then served from the cache.
type compileResponse struct {
	App       string  `json:"app"`
	Blocks    int     `json:"blocks"`
	CacheHit  bool    `json:"cache_hit"`
	Coalesced bool    `json:"coalesced"`
	Design    string  `json:"design"`
	DesignKey string  `json:"design_key"`
	FminMHz   float64 `json:"fmin_mhz"`
	WallMs    float64 `json:"wall_ms"`
}

// executeResponse is the body POST /execute answers with.
type executeResponse struct {
	App   string          `json:"app"`
	Stats *ExecutionStats `json:"stats"`
}

// NewStackHandler exposes the stack over HTTP: the system controller's
// full surface (sched.NewHandler — status, deploy/undeploy, async
// tickets, telemetry, alerts) plus the serving tier's compile/execute
// routes that a front door such as the vitalgw admission gateway drives.
// The added routes share the controller's registry, so they appear in the
// same vital_http_request_seconds / vital_http_requests_total series as
// the rest of the surface.
//
//	POST /compile {design, app} → compile a Table 2 workload spec
//	                      ("<benchmark>-<S|M|L>") under an app name
//	                      (default: the spec string) and answer its
//	                      design_key. Idempotent per (app, design):
//	                      repeats return the registered artifacts, and a
//	                      known design under a new name is a cache hit
//	                      (rebrand, no tools run). Concurrent calls for
//	                      one new design run one compile; the others
//	                      answer coalesced: true. Errors: 400 for a bad
//	                      spec, 409 when the name is bound to a
//	                      different design.
//	POST /execute {app, tokens} → run a compiled, deployed app on the
//	                      cycle-level interconnect model and report its
//	                      ExecutionStats. Errors: 400 more than
//	                      MaxExecuteTokens tokens, 404 unknown app, 409
//	                      compiled but not deployed.
func NewStackHandler(s *Stack) http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, telemetry.InstrumentRoute(s.Controller.Reg, s.Controller.Tracer, pattern, h))
	}

	handle("POST /compile", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Design string `json:"design"`
			App    string `json:"app"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, err)
			return
		}
		app, coalesced, err := s.compileSpec(r.Context(), req.Design, req.App)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, ErrDesignConflict) {
				code = http.StatusConflict
			}
			httpapi.WriteError(w, code, err)
			return
		}
		dkey, _ := s.DesignKeyOf(app.Name)
		httpapi.WriteJSON(w, http.StatusOK, &compileResponse{
			App:       app.Name,
			Blocks:    app.Blocks(),
			CacheHit:  app.CacheHit,
			Coalesced: coalesced,
			Design:    req.Design,
			DesignKey: dkey.String(),
			FminMHz:   app.FminMHz,
			WallMs:    float64(app.Wall.Microseconds()) / 1e3,
		})
	})

	handle("POST /execute", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			App    string `json:"app"`
			Tokens uint64 `json:"tokens"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, err)
			return
		}
		if req.Tokens == 0 {
			req.Tokens = 1
		}
		stats, err := s.ExecuteByName(req.App, req.Tokens)
		if err != nil {
			code := http.StatusInternalServerError
			switch {
			case errors.Is(err, ErrTooManyTokens):
				code = http.StatusBadRequest
			case errors.Is(err, ErrUnknownApp):
				code = http.StatusNotFound
			case errors.Is(err, ErrNotDeployed):
				code = http.StatusConflict
			}
			httpapi.WriteError(w, code, err)
			return
		}
		httpapi.WriteJSON(w, http.StatusOK, &executeResponse{App: req.App, Stats: stats})
	})

	mux.Handle("/", sched.NewHandler(s.Controller))
	return mux
}
