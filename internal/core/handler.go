package core

import (
	"encoding/json"
	"errors"
	"net/http"

	"vital/internal/httpapi"
	"vital/internal/sched"
	"vital/internal/telemetry"
)

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
//	GET  /compileparams → the stack's compile parameters, so a front door
//	                      can compute design keys byte-identical to the
//	                      backend's compile cache without compiling
//	POST /compile {design, app} → compile a Table 2 workload spec
//	                      ("<benchmark>-<S|M|L>") under an app name
//	                      (default: the spec string). Idempotent per
//	                      (app, design): repeats return the registered
//	                      artifacts, and a known design under a new name
//	                      is a cache hit (rebrand, no tools run). Errors:
//	                      400 for a bad spec, 409 when the name is bound
//	                      to a different design.
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

	handle("GET /compileparams", func(w http.ResponseWriter, r *http.Request) {
		httpapi.WriteJSON(w, http.StatusOK, s.CompileParams())
	})

	handle("POST /compile", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Design string `json:"design"`
			App    string `json:"app"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			httpapi.WriteError(w, http.StatusBadRequest, err)
			return
		}
		app, err := s.CompileSpec(r.Context(), req.Design, req.App)
		if err != nil {
			code := http.StatusBadRequest
			if errors.Is(err, ErrDesignConflict) {
				code = http.StatusConflict
			}
			httpapi.WriteError(w, code, err)
			return
		}
		dkey, _ := s.DesignKeyOf(app.Name)
		httpapi.WriteJSON(w, http.StatusOK, map[string]interface{}{
			"app":        app.Name,
			"design":     req.Design,
			"blocks":     app.Blocks(),
			"cache_hit":  app.CacheHit,
			"fmin_mhz":   app.FminMHz,
			"wall_ms":    float64(app.Wall.Microseconds()) / 1e3,
			"design_key": dkey.String(),
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
