package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"vital/internal/core"
	"vital/internal/gateway"
	"vital/internal/sched"
	"vital/internal/telemetry"
)

// stack is the two-tier stack booted in-process: vitald's backend and a
// gateway in front of it, each on a loopback listener, with the client a
// scenario drives them through and the failures it has recorded.
type stack struct {
	*core.Stack
	gw      *gateway.Gateway
	backend string // backend base URL
	front   string // gateway base URL
	// client's timeout is generous: a submit coalesced onto a cold
	// compile legally holds its connection for the whole synthesis.
	client *http.Client

	servers []*http.Server // the backend's first
	streams []io.Closer    // open SSE response bodies
	done    chan struct{}  // closed by close: the SSE readers stop sending
	wg      sync.WaitGroup // the servers and the SSE readers

	mu       sync.Mutex
	failures []string
}

// failf records a failure; any goroutine may call it.
func (st *stack) failf(format string, v ...interface{}) {
	st.mu.Lock()
	defer st.mu.Unlock()
	st.failures = append(st.failures, fmt.Sprintf(format, v...))
}

// fatalf records a failure and ends the scenario, as testing.T.Fatalf
// ends a test: only the scenario's own goroutine may call it.
func (st *stack) fatalf(format string, v ...interface{}) {
	st.failf(format, v...)
	runtime.Goexit()
}

// check ends the scenario on a non-nil error.
func (st *stack) check(err error) {
	if err != nil {
		st.fatalf("%v", err)
	}
}

func (st *stack) all() []string {
	st.mu.Lock()
	defer st.mu.Unlock()
	return append([]string(nil), st.failures...)
}

// token is the bearer token minted for a tenant.
func token(tenant string) string { return "tok-" + tenant }

// run boots a stack, runs body on it in a goroutine of its own (which
// fatalf may end), closes the stack and returns the failures recorded.
func run(opts sched.Options, cfg gateway.Config, body func(*stack)) []string {
	st, err := boot(opts, cfg)
	if err != nil {
		return []string{fmt.Sprintf("booting the stack: %v", err)}
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		body(st)
	}()
	<-done
	st.close()
	return st.all()
}

// boot builds the backend with opts and a gateway from cfg in front of
// it (cfg.Backend is filled in), both serving on loopback. When cfg.Logf
// is set, the backend access-logs to it as the gateway does.
func boot(opts sched.Options, cfg gateway.Config) (_ *stack, err error) {
	st := &stack{
		Stack:  core.NewStackWithOptions(nil, opts),
		client: &http.Client{Timeout: 10 * time.Minute},
		done:   make(chan struct{}),
	}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	var backend http.Handler = core.NewStackHandler(st.Stack)
	if cfg.Logf != nil {
		backend = telemetry.AccessLog(cfg.Logf, backend)
	}
	if st.backend, err = st.serve(backend); err != nil {
		return nil, err
	}
	cfg.Backend = st.backend
	if st.gw, err = gateway.New(cfg); err != nil {
		return nil, err
	}
	if st.front, err = st.serve(st.gw.Handler()); err != nil {
		return nil, err
	}
	return st, nil
}

// serve starts one HTTP server on an ephemeral loopback port.
func (st *stack) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listening on loopback: %w", err)
	}
	srv := &http.Server{Handler: h}
	st.servers = append(st.servers, srv)
	st.wg.Add(1)
	go func() { // ends when close shuts the server down
		defer st.wg.Done()
		_ = srv.Serve(ln)
	}()
	return "http://" + ln.Addr().String(), nil
}

// close ends the SSE readers, shuts the servers (the gateway first) and
// the client's idle connections, and stops the deploy workers, waiting
// for each.
func (st *stack) close() {
	close(st.done)
	for _, body := range st.streams {
		_ = body.Close()
	}
	for i := len(st.servers) - 1; i >= 0; i-- {
		shutdown(st.servers[i])
	}
	st.client.CloseIdleConnections()
	st.wg.Wait()
	st.Controller.Close()
}

// shutdown stops srv once its handlers have returned (Close alone may
// leave one running); one still busy after 10s is cut off.
func shutdown(srv *http.Server) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if srv.Shutdown(ctx) != nil {
		_ = srv.Close()
	}
}

// reply is one answered request.
type reply struct {
	status int
	header http.Header
	body   []byte
	took   time.Duration // until the response headers arrived
}

// request sends body (if any) as JSON, as tenant (if any), and fails
// unless the answer's status is want; it decodes the answer into out (if
// any). The reply is returned whenever one arrived.
func (st *stack) request(method, tenant, url string, body interface{}, want int, out interface{}) (*reply, error) {
	var rd io.Reader
	if body != nil {
		raw, err := json.Marshal(body)
		if err != nil {
			return nil, err
		}
		rd = bytes.NewReader(raw)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set("Authorization", "Bearer "+token(tenant))
	}
	start := time.Now()
	resp, err := st.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	r := &reply{status: resp.StatusCode, header: resp.Header, took: time.Since(start)}
	if r.body, err = io.ReadAll(resp.Body); err != nil {
		return r, fmt.Errorf("%s %s: reading answer: %w", method, url, err)
	}
	if r.status != want {
		return r, fmt.Errorf("%s %s: status %d, want %d: %s", method, url, r.status, want, bytes.TrimSpace(r.body))
	}
	if out != nil {
		if err := json.Unmarshal(r.body, out); err != nil {
			return r, fmt.Errorf("%s %s: %w", method, url, err)
		}
	}
	return r, nil
}

// post sends an authenticated POST and expects 200.
func (st *stack) post(tenant, url string, body interface{}) error {
	_, err := st.request(http.MethodPost, tenant, url, body, http.StatusOK, nil)
	return err
}

// getJSON fetches url, expects 200 and decodes the answer into out.
func (st *stack) getJSON(url string, out interface{}) error {
	_, err := st.request(http.MethodGet, "", url, nil, http.StatusOK, out)
	return err
}

// firing is the set of rules an alerts endpoint reports firing.
func (st *stack) firing(url string) (map[string]bool, error) {
	var al struct {
		Alerts []telemetry.AlertStatus `json:"alerts"`
	}
	if err := st.getJSON(url, &al); err != nil {
		return nil, err
	}
	on := map[string]bool{}
	for _, a := range al.Alerts {
		on[a.Rule] = on[a.Rule] || a.State == telemetry.AlertFiring
	}
	return on, nil
}

// submitted is the gateway's 202 answer to POST /submit.
type submitted struct {
	App         string `json:"app"`
	TraceID     string `json:"trace_id"`
	ColdCompile bool   `json:"cold_compile"`
	Coalesced   bool   `json:"coalesced"`
	Ticket      struct {
		ID string `json:"id"`
	} `json:"ticket"`
}

// submit posts one admission request for tenant. It returns the 202
// answer, or nil when the gateway shed the submit with 429.
func (st *stack) submit(tenant string, req interface{}) (*submitted, *reply, error) {
	var sub submitted
	r, err := st.request(http.MethodPost, tenant, st.front+"/submit", req, http.StatusAccepted, &sub)
	if r != nil && r.status == http.StatusTooManyRequests {
		return nil, r, nil
	}
	if err != nil {
		return nil, r, err
	}
	return &sub, r, nil
}

// retryAfter is a shed reply's Retry-After hint.
func retryAfter(r *reply) time.Duration {
	sec, _ := strconv.Atoi(r.header.Get("Retry-After"))
	return time.Duration(sec) * time.Second
}

// pacing is how deploy resubmits.
type pacing struct {
	shed    time.Duration // wait after a 429; zero waits its Retry-After (≤1s)
	backoff time.Duration // wait after a ticket failed for capacity
	raced   bool          // also resubmit on the tenant's last instance still deployed
}

// deploy submits req for tenant until a deploy ticket succeeds, and
// returns the app; 50 submits is the limit. accepted, if set, sees every
// 202 answer.
func (st *stack) deploy(tenant string, req interface{}, p pacing, accepted func(*submitted, *reply)) (string, error) {
	for attempt := 0; attempt < 50; attempt++ {
		sub, r, err := st.submit(tenant, req)
		if err != nil {
			return "", err
		}
		if sub == nil {
			time.Sleep(cmp.Or(p.shed, min(retryAfter(r), time.Second)))
			continue
		}
		if accepted != nil {
			accepted(sub, r)
		}
		t, err := st.await(sub.Ticket.ID)
		if err != nil {
			return "", err
		}
		if t.State == sched.TicketSucceeded {
			return sub.App, nil
		}
		if !t.Retryable && !(p.raced && strings.Contains(t.Error, "already deployed")) {
			return "", fmt.Errorf("ticket %s failed: %s", t.ID, t.Error)
		}
		time.Sleep(p.backoff)
	}
	return "", fmt.Errorf("50 submit attempts exhausted")
}

// await polls a ticket through the gateway until it is terminal.
func (st *stack) await(id string) (*sched.Ticket, error) {
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		var t sched.Ticket
		if err := st.getJSON(st.front+"/deployments/"+id, &t); err != nil {
			return nil, fmt.Errorf("ticket %s: %w", id, err)
		}
		if t.State == sched.TicketSucceeded || t.State == sched.TicketFailed {
			return &t, nil
		}
	}
	return nil, fmt.Errorf("ticket %s: not terminal after 60s", id)
}

// exposition fetches a tier's Prometheus exposition and checks it under
// the strict validator.
func (st *stack) exposition(base string) ([]byte, error) {
	r, err := st.request(http.MethodGet, "", base+"/metrics?format=prometheus", nil, http.StatusOK, nil)
	if err != nil {
		return nil, err
	}
	if ct := r.header.Get("Content-Type"); ct != telemetry.ContentType {
		return nil, fmt.Errorf("metrics: content type %q, want %q", ct, telemetry.ContentType)
	}
	if err := telemetry.ValidateExposition(r.body); err != nil {
		return nil, fmt.Errorf("metrics exposition invalid: %w", err)
	}
	return r.body, nil
}

// expect fetches a tier's exposition and ends the scenario unless it is
// valid and carries every wanted series.
func (st *stack) expect(base string, want ...string) []byte {
	expo, err := st.exposition(base)
	st.check(err)
	for _, w := range want {
		if !bytes.Contains(expo, []byte(w)) {
			st.fatalf("%s exposition missing %s", base, w)
		}
	}
	return expo
}

// subscribe opens an SSE event stream and returns its decoded events
// once the server has acknowledged it, so events caused after subscribe
// returns are delivered. close ends the reader.
func (st *stack) subscribe(url string) (<-chan sched.Event, error) {
	resp, err := st.client.Get(url)
	if err != nil {
		return nil, err
	}
	st.streams = append(st.streams, resp.Body)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("events/stream: status %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return nil, fmt.Errorf("events/stream preamble: %w", err)
		}
		if strings.HasPrefix(line, ": stream open") {
			break
		}
	}
	// Buffered so a burst of events (a fault, its evacuation, the alert)
	// is read off the stream while the scenario is between waits.
	events := make(chan sched.Event, 64)
	st.wg.Add(1)
	go func() {
		defer st.wg.Done()
		defer close(events)
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return
			}
			data, ok := strings.CutPrefix(line, "data: ")
			if !ok {
				continue
			}
			var ev sched.Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				st.failf("events/stream: bad frame %q: %v", line, err)
				return
			}
			select {
			case events <- ev:
			case <-st.done:
				return
			}
		}
	}()
	return events, nil
}
