package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"vital/internal/cluster"
	"vital/internal/core"
	"vital/internal/gateway"
	"vital/internal/sched"
	"vital/internal/telemetry"
)

// The daemons' defaults, reproduced so the stack under test carries the
// same background work a deployed vitald + vitalgw pair does.
const (
	scrapeInterval = 5 * time.Second  // vitald/vitalgw -scrape-interval
	alertInterval  = 15 * time.Second // vitald -alert-interval
	// limiterRate is the gateway's per-tenant rate and burst: the limiter
	// runs on every submit but never refuses one.
	limiterRate = 10000
)

// tiers is the real two-tier stack booted in-process on loopback TCP,
// wired the way cmd/vitald and cmd/vitalgw wire it.
type tiers struct {
	stack *core.Stack
	gw    *gateway.Gateway
	// backendHandler and gatewayHandler are the exact handlers the two
	// listeners serve, kept for the ladder's in-process rungs.
	backendHandler http.Handler
	gatewayHandler http.Handler
	backend        string // backend base URL
	front          string // gateway base URL

	servers []*http.Server
	// clients are the load-generator connections opened on this stack;
	// close shuts them with it.
	clients []*client
	stop    chan struct{}
	wg      sync.WaitGroup
}

// token returns the bearer token minted for a tenant.
func token(tenant string) string { return "tok-" + tenant }

// boot assembles backend and gateway over a cluster of the given board
// count (0 selects the paper's four boards), both serving on loopback.
// The background loops are started separately, by startLoops.
func boot(boards int, tenants []string) (*tiers, error) {
	var c *cluster.Cluster
	if boards > 0 {
		var err error
		if c, err = cluster.New(cluster.Config{NumBoards: boards}); err != nil {
			return nil, err
		}
	}
	discard := log.New(io.Discard, "", 0).Printf
	t := &tiers{
		stack: core.NewStackWithOptions(c, sched.Options{}),
		stop:  make(chan struct{}),
	}
	t.backendHandler = telemetry.AccessLog(discard, core.NewStackHandler(t.stack))
	var err error
	if t.backend, err = t.serve(t.backendHandler); err != nil {
		t.close()
		return nil, err
	}
	creds := map[string]string{token(ladderTenant): ladderTenant}
	for _, name := range tenants {
		creds[token(name)] = name
	}
	t.gw, err = gateway.New(gateway.Config{
		Backend: t.backend,
		Tokens:  creds,
		Rate:    limiterRate,
		Burst:   limiterRate,
		Logf:    discard,
		// A submit coalesced onto a cold compile holds its backend
		// request for the whole synthesis; the default 30 s is for
		// daemons on faster hosts.
		Client: &http.Client{Timeout: 5 * time.Minute},
	})
	if err != nil {
		t.close()
		return nil, err
	}
	t.gatewayHandler = t.gw.Handler()
	if t.front, err = t.serve(t.gatewayHandler); err != nil {
		t.close()
		return nil, err
	}
	telemetry.RegisterRuntimeMetrics(t.stack.Controller.Reg)
	telemetry.RegisterRuntimeMetrics(t.gw.Reg)
	return t, nil
}

// startLoops starts the daemons' background work: the TSDB scrape of each
// tier's registry, and the alert ticker. It is a step of its own because
// the registry's readers are not safe beside a writer creating a series
// (they index a family's series map after releasing the registry lock, and
// the runtime kills the process on a concurrent map read and write): a
// workload first touches every app and tenant name it will use, which is
// when series are created in bulk, and only then lets the scrapes begin.
func (t *tiers) startLoops() {
	ct := t.stack.Controller
	t.wg.Add(3)
	go func() { defer t.wg.Done(); ct.TSDB.Poll(ct.Reg, scrapeInterval, t.stop) }()
	go func() { defer t.wg.Done(); t.gw.DB.Poll(t.gw.Reg, scrapeInterval, t.stop) }()
	go func() {
		defer t.wg.Done()
		ticker := time.NewTicker(alertInterval)
		defer ticker.Stop()
		for {
			select {
			case <-t.stop:
				return
			case <-ticker.C:
				ct.EvalAlerts()
			}
		}
	}()
}

// serve starts one HTTP server on an ephemeral loopback port.
func (t *tiers) serve(h http.Handler) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", fmt.Errorf("listening on loopback: %w", err)
	}
	srv := &http.Server{Handler: h}
	t.servers = append(t.servers, srv)
	go func() { _ = srv.Serve(ln) }() // ends when close shuts the server down
	return "http://" + ln.Addr().String(), nil
}

// close stops the clients, the servers, the background loops and the
// deploy workers, and waits for each.
func (t *tiers) close() {
	for _, c := range t.clients {
		c.hc.CloseIdleConnections()
	}
	for _, srv := range t.servers {
		_ = srv.Close()
	}
	close(t.stop)
	t.wg.Wait()
	t.stack.Controller.Close()
}

// client is one load-generator connection: its transport holds at most
// one connection per tier, so "two clients" means two TCP connections
// into the gateway.
type client struct {
	hc *http.Client
	t  *tiers
	// rec is the client's span recorder, nil when tracing is off.
	rec *recorder
	// memQuota is the DRAM quota its submits ask for, 0 for the backend's
	// default.
	memQuota uint64
	// tally counts what this client attempted and how it ended.
	tally tally
}

// tally is the load generator's own bookkeeping. Every HTTP request is
// one operation; refused are the 429/5xx answers, failed everything else
// that did not end the way the workload scripted it (transport errors,
// 4xx, tickets that ended failed).
type tally struct {
	sent, ok, failed, refused int
	// deploys and undeploys count the ones the backend confirmed — the
	// client side of the audit-counter check.
	deploys, undeploys int
	shed, retryable    int
	coalesced, cold    int
	polls              int
}

func (a *tally) add(b tally) {
	a.sent += b.sent
	a.ok += b.ok
	a.failed += b.failed
	a.refused += b.refused
	a.deploys += b.deploys
	a.undeploys += b.undeploys
	a.shed += b.shed
	a.retryable += b.retryable
	a.coalesced += b.coalesced
	a.cold += b.cold
	a.polls += b.polls
}

// newClient opens a load-generator connection on the stack. Call it from
// the goroutine that owns the stack.
func (t *tiers) newClient() *client {
	tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	c := &client{hc: &http.Client{Transport: tr, Timeout: 5 * time.Minute}, t: t}
	t.clients = append(t.clients, c)
	return c
}

// do sends one request and returns the answer's body. want is the status
// the script expects; anything else is tallied as refused (429/5xx) or
// failed and returned as an error.
func (c *client) do(method, url, tenant string, body []byte, want int) ([]byte, error) {
	c.tally.sent++
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, url, rd)
	if err != nil {
		c.tally.failed++
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tenant != "" {
		req.Header.Set("Authorization", "Bearer "+token(tenant))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		c.tally.failed++
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		c.tally.failed++
		return nil, fmt.Errorf("%s %s: reading answer: %w", method, url, err)
	}
	if resp.StatusCode != want {
		switch {
		case resp.StatusCode == http.StatusTooManyRequests:
			c.tally.refused++
			c.tally.shed++
		case resp.StatusCode >= 500:
			c.tally.refused++
		default:
			c.tally.failed++
		}
		return nil, fmt.Errorf("%s %s: %s: %s", method, url, resp.Status, bytes.TrimSpace(raw))
	}
	c.tally.ok++
	return raw, nil
}

// doJSON is do with the answer decoded into out.
func (c *client) doJSON(method, url, tenant string, body []byte, want int, out interface{}) error {
	raw, err := c.do(method, url, tenant, body, want)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, out); err != nil {
		c.tally.ok--
		c.tally.failed++
		return fmt.Errorf("%s %s: decoding answer: %w", method, url, err)
	}
	return nil
}
