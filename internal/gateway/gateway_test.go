package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"vital/internal/core"
)

// --- token bucket --------------------------------------------------------

func TestTokenBucketSyntheticClock(t *testing.T) {
	t0 := time.Unix(1700000000, 0)
	b := newTokenBucket(1, 2, t0) // 1 token/s, burst 2

	for i := 0; i < 2; i++ {
		if ok, _ := b.take(t0); !ok {
			t.Fatalf("take %d within burst denied", i)
		}
	}
	ok, retry := b.take(t0)
	if ok {
		t.Fatal("take beyond burst allowed")
	}
	if retry < time.Second {
		t.Fatalf("Retry-After hint = %v, want >= 1s", retry)
	}
	// One second refills exactly one token.
	if ok, _ := b.take(t0.Add(time.Second)); !ok {
		t.Fatal("take after 1s refill denied")
	}
	if ok, _ := b.take(t0.Add(time.Second)); ok {
		t.Fatal("second take after 1s refill allowed")
	}
	// A long idle period refills to the burst cap, no further.
	t1 := t0.Add(time.Hour)
	for i := 0; i < 2; i++ {
		if ok, _ := b.take(t1); !ok {
			t.Fatalf("take %d after long idle denied", i)
		}
	}
	if ok, _ := b.take(t1); ok {
		t.Fatal("burst cap not enforced after long idle")
	}
}

func TestLimiterSetPerTenant(t *testing.T) {
	t0 := time.Unix(1700000000, 0)
	l := newLimiterSet(1, 1)
	if ok, _ := l.take("a", t0); !ok {
		t.Fatal("tenant a first take denied")
	}
	if ok, _ := l.take("a", t0); ok {
		t.Fatal("tenant a over burst allowed")
	}
	// Tenant b has its own bucket.
	if ok, _ := l.take("b", t0); !ok {
		t.Fatal("tenant b first take denied")
	}
	// Zero rate/burst disables limiting entirely.
	open := newLimiterSet(0, 0)
	for i := 0; i < 100; i++ {
		if ok, _ := open.take("a", t0); !ok {
			t.Fatal("unlimited limiter denied a take")
		}
	}
}

// --- gateway over an in-process backend ----------------------------------

// newGatewayPair boots a real backend stack, its HTTP surface, and a
// gateway in front, all in-process.
func newGatewayPair(t *testing.T, cfg Config) (*core.Stack, *Gateway, *httptest.Server) {
	t.Helper()
	stack := core.NewStack(nil)
	backend := httptest.NewServer(core.NewStackHandler(stack))
	t.Cleanup(backend.Close)
	t.Cleanup(stack.Controller.Close)
	cfg.Backend = backend.URL
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(g.Handler())
	t.Cleanup(front.Close)
	return stack, g, front
}

func authedPost(t *testing.T, url, token string, body interface{}) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if token != "" {
		req.Header.Set("Authorization", "Bearer "+token)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// New refuses a backend that is not an http(s) URL with a host, without
// contacting anything.
func TestNewRejectsMalformedBackend(t *testing.T) {
	for _, backend := range []string{"", "127.0.0.1:9000", "ftp://host", "http://", "http://%zz", "/compile"} {
		if _, err := New(Config{Backend: backend}); err == nil {
			t.Errorf("New accepted backend %q", backend)
		}
	}
	for _, backend := range []string{"http://127.0.0.1:9000", "https://vitald.example:8443"} {
		if _, err := New(Config{Backend: backend}); err != nil {
			t.Errorf("New(%q): %v", backend, err)
		}
	}
}

func TestGatewayAuthAndTenantScope(t *testing.T) {
	_, g, front := newGatewayPair(t, Config{
		Tokens: map[string]string{"tok-a": "alice", "tok-b": "bob"},
	})

	for _, token := range []string{"", "wrong"} {
		resp := authedPost(t, front.URL+"/submit", token, map[string]string{"design": "lenet-S"})
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("token %q: status = %d, want 401", token, resp.StatusCode)
		}
	}
	if got := g.authFailures.Value(); got != 2 {
		t.Fatalf("auth failure counter = %d, want 2", got)
	}

	// Bad design spec and bad priority are rejected before any compile.
	resp := authedPost(t, front.URL+"/submit", "tok-a", map[string]string{"design": "warp9-S"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad design: status = %d, want 400", resp.StatusCode)
	}
	resp = authedPost(t, front.URL+"/submit", "tok-a",
		map[string]string{"design": "lenet-S", "priority": "urgent"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad priority: status = %d, want 400", resp.StatusCode)
	}

	// A tenant cannot operate on another tenant's namespaced instance.
	for _, path := range []string{"/execute", "/undeploy"} {
		resp = authedPost(t, front.URL+path, "tok-b", map[string]string{"app": "alice.lenet-S"})
		resp.Body.Close()
		if resp.StatusCode != http.StatusForbidden {
			t.Fatalf("cross-tenant %s: status = %d, want 403", path, resp.StatusCode)
		}
	}
}

// TestGatewayRelaysExecuteRejection: the backend refuses a token count
// over core.MaxExecuteTokens with 400, and the gateway relays that status
// rather than turning it into a gateway error.
func TestGatewayRelaysExecuteRejection(t *testing.T) {
	stack, _, front := newGatewayPair(t, Config{Tokens: map[string]string{"tok-a": "alice"}})
	app, err := stack.CompileSpec(context.Background(), "lenet-S", "alice.lenet-S")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := stack.Deploy(app, 1<<30); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		tokens uint64
		want   int
	}{{2, http.StatusOK}, {1 << 62, http.StatusBadRequest}} {
		resp := authedPost(t, front.URL+"/execute", "tok-a", map[string]interface{}{"app": "alice.lenet-S", "tokens": c.tokens})
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Fatalf("execute %d tokens through the gateway: status %d, want %d", c.tokens, resp.StatusCode, c.want)
		}
	}
}

func TestGatewayRateLimit(t *testing.T) {
	_, g, front := newGatewayPair(t, Config{
		Tokens: map[string]string{"tok-a": "alice"},
		Rate:   1,
		Burst:  2,
	})

	// The bucket is taken before the body is even decoded, so empty-body
	// submissions (400) still consume admission tokens.
	for i := 0; i < 2; i++ {
		resp := authedPost(t, front.URL+"/submit", "tok-a", nil)
		resp.Body.Close()
		if resp.StatusCode == http.StatusTooManyRequests {
			t.Fatalf("submission %d within burst rate-limited", i)
		}
	}
	resp := authedPost(t, front.URL+"/submit", "tok-a", nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || ra == "0" {
		t.Fatalf("429 without a usable Retry-After (%q)", ra)
	}
	if got := g.rateLimited.Value(); got != 1 {
		t.Fatalf("rate-limited counter = %d, want 1", got)
	}
}

// TestGatewaySingleflightDedup is the admission tier's core claim under
// -race: N tenants concurrently submitting the same design cost exactly one
// compile (one backend cache miss), and every tenant's instance shares the
// leader's bitstream frames (a rebranding clone, not a copy).
func TestGatewaySingleflightDedup(t *testing.T) {
	const tenants = 16
	tokens := map[string]string{}
	for i := 0; i < tenants; i++ {
		tokens[fmt.Sprintf("tok-%02d", i)] = fmt.Sprintf("t%02d", i)
	}
	stack, g, front := newGatewayPair(t, Config{Tokens: tokens})

	type outcome struct {
		status int
		body   submitResponse
		err    error
	}
	results := make([]outcome, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			raw, _ := json.Marshal(map[string]string{"design": "lenet-S"})
			req, err := http.NewRequest(http.MethodPost, front.URL+"/submit", bytes.NewReader(raw))
			if err != nil {
				results[i].err = err
				return
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("Authorization", "Bearer "+fmt.Sprintf("tok-%02d", i))
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				results[i].err = err
				return
			}
			defer resp.Body.Close()
			results[i].status = resp.StatusCode
			results[i].err = json.NewDecoder(resp.Body).Decode(&results[i].body)
		}(i)
	}
	wg.Wait()

	for i, r := range results {
		if r.err != nil {
			t.Fatalf("tenant %d: %v", i, r.err)
		}
		if r.status != http.StatusAccepted {
			t.Fatalf("tenant %d: status = %d, want 202", i, r.status)
		}
		if r.body.DesignKey == "" || r.body.DesignKey != results[0].body.DesignKey {
			t.Fatalf("tenant %d: design key %q differs from %q", i, r.body.DesignKey, results[0].body.DesignKey)
		}
		if want := fmt.Sprintf("t%02d.lenet-S", i); r.body.App != want {
			t.Fatalf("tenant %d: app = %q, want %q", i, r.body.App, want)
		}
		if len(r.body.Ticket) == 0 {
			t.Fatalf("tenant %d: no ticket in 202 response", i)
		}
	}

	// Exactly one synthesis ran: the first tenant instance's compile.
	// Every other instance was served from the content-addressed cache.
	cs := stack.Controller.CacheStats()
	if cs.Misses != 1 || cs.Hits+cs.Misses != tenants {
		t.Fatalf("compile cache misses = %d, hits = %d for %d concurrent identical submissions, want 1 miss and %d lookups",
			cs.Misses, cs.Hits, tenants, tenants)
	}

	// All tenants share one set of frames: the cached artifacts are
	// rebranded, never copied.
	db := stack.Controller.Bitstreams
	design, ok := db.Lookup("t00.lenet-S")
	if !ok || len(design) == 0 {
		t.Fatal("t00.lenet-S bitstreams missing from the database")
	}
	for i := 1; i < tenants; i++ {
		app := fmt.Sprintf("t%02d.lenet-S", i)
		inst, ok := db.Lookup(app)
		if !ok || len(inst) != len(design) {
			t.Fatalf("%s: %d bitstreams, want %d", app, len(inst), len(design))
		}
		for b := range inst {
			if len(inst[b].Frames) == 0 || &inst[b].Frames[0] != &design[b].Frames[0] {
				t.Fatalf("%s/vb%d: frames copied, want shared with t00.lenet-S", app, b)
			}
		}
	}

	// Coalesce accounting: every non-leader either joined the leader's
	// flight on the backend (counted) or arrived after it closed (not
	// counted); the counter can never exceed the non-leader count.
	if got := g.coalesceHits.Value(); got > tenants-1 {
		t.Fatalf("coalesce hits = %d, want <= %d", got, tenants-1)
	}
	var cold int
	for _, r := range results {
		if r.body.ColdCompile {
			cold++
		}
	}
	if cold != tenants {
		// Every submission here was a tenant's first, so each made its
		// instance's compile round trip.
		t.Fatalf("cold_compile reported on %d of %d first submissions", cold, tenants)
	}

	// A repeat submission from a known tenant is the warm path end to end.
	resp := authedPost(t, front.URL+"/submit", "tok-00", map[string]string{"design": "lenet-S"})
	var warm submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&warm); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || warm.ColdCompile || warm.Coalesced {
		t.Fatalf("warm resubmission: status=%d cold=%v coalesced=%v, want 202 warm", resp.StatusCode, warm.ColdCompile, warm.Coalesced)
	}
	if got := stack.Controller.CacheStats().Misses; got != 1 {
		t.Fatalf("warm resubmission added a cache miss (%d)", got)
	}
}
