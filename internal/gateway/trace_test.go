package gateway

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"vital/internal/telemetry"
)

// getJSONT fetches a URL and decodes the JSON body into v.
func getJSONT(t *testing.T, url string, v interface{}) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decoding %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestSubmitTraceSpansLinkAcrossProcesses drives one submit through the
// gateway into the backend's async pipeline and asserts the whole
// journey — gateway admission, backend compile, queue wait, worker
// deploy — lands under the submit's single trace ID as one contiguous
// tree. Run under -race this also exercises the span handoff across the
// enqueue channel (the ticket span is written before the channel send
// and read by the worker after the receive).
func TestSubmitTraceSpansLinkAcrossProcesses(t *testing.T) {
	_, _, front := newGatewayPair(t, Config{
		Tokens: map[string]string{"tok-a": "alice"},
	})

	resp := authedPost(t, front.URL+"/submit", "tok-a", map[string]string{"design": "lenet-S"})
	var sub struct {
		TraceID string `json:"trace_id"`
		Ticket  struct {
			ID string `json:"id"`
		} `json:"ticket"`
	}
	err := json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		t.Fatalf("submit status = %d, decode err = %v", resp.StatusCode, err)
	}
	if sub.TraceID == "" || sub.Ticket.ID == "" {
		t.Fatalf("submit response lacks trace or ticket: %+v", sub)
	}

	// The deploy is async: wait for the worker to finish the ticket (the
	// gateway proxies the backend's ticket store).
	deadline := time.Now().Add(30 * time.Second)
	for {
		var tk struct {
			State string `json:"state"`
			Error string `json:"error"`
		}
		getJSONT(t, front.URL+"/deployments/"+sub.Ticket.ID, &tk)
		if tk.State == "succeeded" {
			break
		}
		if tk.State == "failed" {
			t.Fatalf("deploy ticket failed: %s", tk.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("ticket stuck in %q", tk.State)
		}
		time.Sleep(5 * time.Millisecond)
	}

	var td telemetry.TraceData
	if code := getJSONT(t, front.URL+"/trace/"+sub.TraceID, &td); code != http.StatusOK {
		t.Fatalf("GET /trace/%s = %d", sub.TraceID, code)
	}
	if td.ID != sub.TraceID {
		t.Fatalf("merged trace ID = %s, want %s", td.ID, sub.TraceID)
	}

	// Exactly one root, and every parent resolves inside the merged span
	// set — no segment got lost between the gateway, the backend's HTTP
	// tier, and the async worker.
	ids := map[int64]bool{}
	roots := 0
	for _, sp := range td.AllSpans {
		ids[sp.ID] = true
	}
	for _, sp := range td.AllSpans {
		if sp.Parent == 0 {
			roots++
			continue
		}
		if !ids[sp.Parent] {
			t.Errorf("span %q (id %#x) has parent %#x outside the trace", sp.Name, sp.ID, sp.Parent)
		}
	}
	if roots != 1 {
		t.Errorf("merged trace has %d roots, want 1", roots)
	}

	// The journey's load-bearing stages are all present: the gateway
	// admission root, the backend compile, the queue wait, the worker's
	// deploy, and the async ticket segment linking them.
	want := map[string]bool{
		"submit":          false,
		"ensure.instance": false,
		"backend.enqueue": false,
		"compile":         false,
		"deploy.async":    false,
		"queue.wait":      false,
		"deploy":          false,
	}
	for _, sp := range td.AllSpans {
		if _, tracked := want[sp.Name]; tracked {
			want[sp.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("merged trace lacks a %q span (got %d spans)", name, len(td.AllSpans))
		}
	}
	if t.Failed() {
		t.Logf("trace tree:\n%s", td.Tree())
	}
}
