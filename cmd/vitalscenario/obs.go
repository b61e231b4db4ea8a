package main

import (
	"context"
	"fmt"
	"log"
	"net/http"
	"strings"
	"time"

	"vital/internal/core"
	"vital/internal/gateway"
	"vital/internal/sched"
	"vital/internal/telemetry"
)

// obsScenario is the parser of an observability scenario, which takes no
// flags and runs body once lenet-S is deployed over the backend's API.
func obsScenario(name string, body func(*stack, *core.CompiledApp)) parser {
	return func(args []string) (func() []string, error) {
		if err := newFlags(name).Parse(args); err != nil {
			return nil, err
		}
		// Zero For-duration on the board rule so alerts sees the firing
		// transition on the first evaluation after the fault.
		th := sched.DefaultAlertThresholds()
		th.BoardUnhealthyFor = 0
		// Tiny SLO windows so trace's burn-rate ladder resolves in
		// smoke-test time: 90% availability over 2s, alert when both the
		// 500ms and the 1s windows burn more than 2x.
		cfg := gateway.Config{
			Tokens:    map[string]string{token("acme"): "acme"},
			SLOTarget: 0.9,
			SLOWindow: 2 * time.Second,
			BurnRules: []telemetry.BurnRateRule{
				{Name: "fast_burn", Short: 500 * time.Millisecond, Long: time.Second, Factor: 2},
			},
			Logf: log.Printf,
		}
		return func() []string {
			return run(sched.Options{Alerts: &th}, cfg, func(st *stack) {
				app, err := st.CompileSpec(context.Background(), "lenet-S", "")
				if err != nil {
					st.fatalf("compiling lenet-S: %v", err)
				}
				log.Printf("compiled lenet-S: %d blocks in %v", app.Blocks(), app.Wall)
				st.check(st.post("", st.backend+"/deploy", map[string]string{"app": "lenet-S"}))
				log.Printf("deployed lenet-S")
				body(st, app)
			})
		}, nil
	}
}

// obs checks the exposition, the trace listing and trace retrieval.
func obs(st *stack, _ *core.CompiledApp) {
	// Surface 1: the Prometheus exposition must parse under the strict
	// validator and carry the deploy-latency histogram.
	expo := st.expect(st.backend,
		"vital_deploy_seconds_bucket",
		"vital_compile_seconds_bucket",
		"vital_http_request_seconds_bucket",
		"vital_board_health",
	)
	log.Printf("prometheus exposition OK (%d bytes)", len(expo))

	// Surface 2: the deploy must have left a retrievable trace.
	var list struct {
		Traces []telemetry.TraceSummary `json:"traces"`
	}
	st.check(st.getJSON(st.backend+"/traces?app=lenet-S", &list))
	var deployID string
	for _, ts := range list.Traces {
		if ts.Name == "deploy" {
			deployID = ts.ID
			break
		}
	}
	if deployID == "" {
		st.fatalf("no deploy trace for lenet-S in %d traces", len(list.Traces))
	}

	// Surface 3: the full trace comes back with its span tree.
	var td telemetry.TraceData
	st.check(st.getJSON(st.backend+"/trace/"+deployID, &td))
	if len(td.AllSpans) < 2 {
		st.fatalf("deploy trace %s has %d spans, want at least root+child", deployID, len(td.AllSpans))
	}
	tree := td.Tree()
	for _, want := range []string{"deploy", "allocate", "provision"} {
		if !strings.Contains(tree, want) {
			st.fatalf("deploy trace tree missing %q span:\n%s", want, tree)
		}
	}
	log.Printf("deploy trace %s OK (%d spans)", deployID, len(td.AllSpans))
}

// alerts checks placement scoring, data-plane metrics and the live alert
// path: SSE stream → board fault → evacuation → firing alert.
func alerts(st *stack, app *core.CompiledApp) {
	// Surface 4: the placement report covers the deployed app.
	var cp sched.ClusterPlacement
	st.check(st.getJSON(st.backend+"/placement", &cp))
	if len(cp.Apps) != 1 || cp.Apps[0].App != "lenet-S" {
		st.fatalf("placement report apps = %+v, want [lenet-S]", cp.Apps)
	}
	sc := cp.Apps[0]
	if sc.Quality < 0 || sc.Quality > 1 {
		st.fatalf("placement quality %v out of range", sc.Quality)
	}
	log.Printf("placement OK: %d edges, %d/%d/%d intra/inter-die/inter-board, quality %.2f",
		sc.Edges, sc.IntraDie, sc.InterDie, sc.InterBoard, sc.Quality)

	// Surface 5: an execution populates the channel-traffic series.
	dep, ok := st.Controller.Deployment("lenet-S")
	if !ok {
		st.fatalf("lenet-S vanished between deploy and execute")
	}
	primary := dep.Primary
	stats, err := st.Execute(app, dep, 64)
	if err != nil {
		st.fatalf("execute: %v", err)
	}
	log.Printf("executed lenet-S: %d cycles, %d firings through %d actors",
		stats.Cycles, stats.Tokens, stats.NumActors)

	// Surface 6: a live SSE subscriber must observe the fault, the
	// evacuation and the alert transition.
	events, err := st.subscribe(st.backend + "/events/stream?heartbeat=1s")
	st.check(err)
	st.check(st.post("", st.backend+"/fault", map[string]interface{}{"board": primary, "kind": "fail"}))
	st.waitEvent(events, sched.EventFault, "")
	st.waitEvent(events, sched.EventEvacuate, "")
	log.Printf("SSE observed fault and evacuation of board %d", primary)

	// GET /alerts evaluates the rules; the zero-For board rule must fire
	// and its transition must arrive over the same stream.
	rule := fmt.Sprintf("board_%d_unhealthy", primary)
	on, err := st.firing(st.backend + "/alerts")
	st.check(err)
	if !on[rule] {
		st.fatalf("%s not firing after board %d failed: firing %v", rule, primary, on)
	}
	st.waitEvent(events, sched.EventAlert, rule)
	log.Printf("alert %s fired and arrived over SSE", rule)

	// The exposition must now carry channel-traffic, placement-quality and
	// alert-state series, still accepted by the strict validator.
	expo := st.expect(st.backend,
		"vital_channel_tokens_total",
		"vital_channel_effective_gbps",
		"vital_ring_segment_utilization",
		"vital_placement_quality",
		"vital_fragmentation_index",
		"vital_alert_state",
		"vital_mem_read_bytes_total",
		"vital_vnic_tx_frames_total",
	)
	log.Printf("data-plane exposition OK (%d bytes)", len(expo))
}

// waitEvent consumes the stream until an event of the wanted kind (and
// app, when non-empty) arrives, failing after a timeout.
func (st *stack) waitEvent(events <-chan sched.Event, kind sched.EventKind, app string) {
	deadline := time.After(10 * time.Second)
	for {
		select {
		case ev, ok := <-events:
			if !ok {
				st.fatalf("event stream closed while waiting for %s", kind)
			}
			if ev.Kind == kind && (app == "" || ev.App == app) {
				return
			}
		case <-deadline:
			st.fatalf("timed out waiting for %s event (app %q)", kind, app)
		}
	}
}

// trace checks the cross-process tracing and SLO tier: one submit
// reassembling into a single contiguous trace, the tenant RED and
// exemplar series, and — after the backend dies — a firing multi-window
// burn-rate alert.
func trace(st *stack, _ *core.CompiledApp) {
	// Surface 7: one submit, one trace ID, the whole journey under it.
	lenet := map[string]string{"design": "lenet-S"}
	sub, r, err := st.submit("acme", lenet)
	st.check(err)
	if sub == nil || sub.TraceID == "" || sub.Ticket.ID == "" {
		st.fatalf("submit response lacks trace/ticket: status %d: %s", r.status, r.body)
	}
	tk, err := st.await(sub.Ticket.ID)
	st.check(err)
	if tk.State == sched.TicketFailed {
		st.fatalf("submit ticket failed: %s", tk.Error)
	}

	var td telemetry.TraceData
	st.check(st.getJSON(st.front+"/trace/"+sub.TraceID, &td))
	ids, names := map[int64]bool{}, map[string]bool{}
	for _, sp := range td.AllSpans {
		ids[sp.ID], names[sp.Name] = true, true
	}
	roots := 0
	for _, sp := range td.AllSpans {
		if sp.Parent == 0 {
			roots++
		} else if !ids[sp.Parent] {
			st.fatalf("trace %s not contiguous: span %q parent %#x missing:\n%s",
				sub.TraceID, sp.Name, sp.Parent, td.Tree())
		}
	}
	if roots != 1 {
		st.fatalf("trace %s has %d roots, want 1:\n%s", sub.TraceID, roots, td.Tree())
	}
	for _, want := range []string{"submit", "backend.enqueue", "compile", "deploy.async", "queue.wait", "deploy"} {
		if !names[want] {
			st.fatalf("trace %s missing %q span:\n%s", sub.TraceID, want, td.Tree())
		}
	}
	log.Printf("cross-process trace %s OK: %d spans, one contiguous tree", sub.TraceID, len(td.AllSpans))

	// Surface 8: the gateway exposition validates strictly and carries
	// the tenant RED, SLO and exemplar series.
	expo := st.expect(st.front,
		"vital_tenant_requests_total",
		"vital_tenant_latency_seconds_bucket",
		"vital_tenant_slo_budget_remaining",
		"vital_tenant_slo_burn_rate",
		"vital_alert_state",
		`# {trace_id="`,
	)
	log.Printf("gateway exposition OK (%d bytes, exemplars present)", len(expo))

	// Surface 9: kill the backend; failing submits burn acme's error
	// budget until the burn-rate rule fires.
	shutdown(st.servers[0])
	fireDeadline := time.Now().Add(15 * time.Second)
	for {
		_, err := st.request(http.MethodPost, "acme", st.front+"/submit", lenet, http.StatusBadGateway, nil)
		st.check(err)
		var slo struct {
			Tenants map[string]telemetry.SLOStatus `json:"tenants"`
			Alerts  []telemetry.AlertStatus        `json:"alerts"`
		}
		st.check(st.getJSON(st.front+"/slo", &slo))
		firing := ""
		for _, a := range slo.Alerts {
			if a.State == telemetry.AlertFiring {
				firing = a.Rule
			}
		}
		if firing != "" {
			acme := slo.Tenants["acme"]
			if acme.BudgetRemaining >= 1 {
				st.fatalf("burn rule %s firing but acme's budget untouched: %+v", firing, acme)
			}
			log.Printf("burn-rate alert %s firing: acme at %d/%d errors, budget %.2f",
				firing, acme.Errors, acme.Total, acme.BudgetRemaining)
			return
		}
		if time.Now().After(fireDeadline) {
			st.fatalf("no burn-rate rule firing after sustained 502s: %+v", slo.Alerts)
		}
		time.Sleep(50 * time.Millisecond)
	}
}
