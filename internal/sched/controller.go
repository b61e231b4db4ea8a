package sched

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"vital/internal/bitstream"
	"vital/internal/cluster"
	"vital/internal/memvirt"
	"vital/internal/telemetry"
	"vital/internal/telemetry/tsdb"
	"vital/internal/verify"
)

// Controller is the system controller of Fig. 6: it owns the resource
// database and the bitstream database, performs runtime resource
// management, deploys applications by partial reconfiguration, and wires up
// the per-application protection domains.
type Controller struct {
	Cluster    *cluster.Cluster
	DB         *ResourceDB
	Bitstreams *bitstream.Database
	// Cache is the compilation layer's content-addressed artifact store:
	// the core stack consults it before running the expensive compile
	// steps, so many tenants deploying the same design compile once.
	Cache *bitstream.CompileCache
	// Reg is the controller's metrics registry and Tracer its span
	// recorder (the daemon runs one controller, so these are process-wide
	// in practice). The compilation layer and the HTTP layer share them.
	Reg    *telemetry.Registry
	Tracer *telemetry.Tracer
	// Alerts is the controller's alert-rule engine (internally
	// synchronized; rules sample controller state, so nothing holding
	// ct.mu may call into it — see alerts.go for the lock ordering).
	Alerts *telemetry.AlertEngine
	// TSDB is the controller's embedded time-series store: a scrape loop
	// (vitald's poller, or tests calling Scrape directly) samples Reg into
	// it, and GET /query answers range queries over the history. Internally
	// synchronized; created empty — it holds nothing until scraped.
	TSDB *tsdb.DB
	// log, opts, lat, alertThresholds and dp are set once at construction
	// (log is internally synchronized, lat's histograms and dp's counters
	// are atomic), so they live above mu (fields below mu are guarded by
	// it — see lockcheck).
	log             *eventLog
	opts            Options
	lat             opLatencies
	alertThresholds AlertThresholds
	dp              dataPlaneTotals
	// async is the bounded async deploy pipeline (internally synchronized;
	// its workers call Deploy, which takes ct.mu per ticket).
	async *AsyncPipeline
	// defragMoves counts blocks relocated by DefragStep (atomic: bumped
	// under ct.mu, read lock-free at scrape time).
	defragMoves atomic.Uint64

	mu       sync.Mutex
	deployed map[string]*Deployment
}

// Options tunes controller behavior.
type Options struct {
	// VerifyOnDeploy re-checks the architectural invariants (identical
	// columns, clock alignment, die boundaries, region disjointness, tenant
	// isolation) after every deployment and rolls the deployment back if any
	// is violated — a belt-and-braces mode for multi-tenant operators.
	VerifyOnDeploy bool
	// Alerts overrides the built-in alert-rule thresholds (nil selects
	// DefaultAlertThresholds).
	Alerts *AlertThresholds
	// DefragMoves bounds the incremental defragmentation work triggered
	// when the fragmentation_high alert fires: each EvalAlerts pass with
	// the rule firing runs DefragStep(DefragMoves). Zero disables the
	// automatic wiring; DefragStep stays callable directly.
	DefragMoves int
	// QueueDepth is the per-priority-class capacity of the async deploy
	// queue (tickets beyond it are shed with 429 + Retry-After) and
	// QueueWorkers the number of workers draining it. Zero selects the
	// defaults (256 and 4).
	QueueDepth   int
	QueueWorkers int
	// TraceLimit bounds the tracer's in-memory trace retention (zero
	// selects telemetry.DefaultTraceLimit).
	TraceLimit int
}

// Deployment records a running application.
type Deployment struct {
	App    string
	Blocks []cluster.GlobalBlockRef
	// Programmed holds the relocated bitstreams, index-aligned with Blocks.
	Programmed []*bitstream.Bitstream
	// ReconfigTime is the partial-reconfiguration latency incurred
	// (per-board programming proceeds in parallel; within a board it is
	// serial through the one ICAP).
	ReconfigTime time.Duration
	// MultiFPGA reports whether the app spans multiple boards.
	MultiFPGA bool
	// Primary is the board holding the app's memory domain and virtual NIC.
	// It is fixed at deploy time: relocations may later move every block off
	// the board, so it cannot be re-derived from Blocks.
	Primary int
	// VNIC is the app's virtual NIC on its primary board.
	VNIC *memvirt.VNIC
	// MemQuota is the DRAM quota of the app's memory domain, retained so
	// evacuation can re-provision the domain when the primary board fails.
	MemQuota uint64
}

// NewController assembles a controller over a cluster with default options.
func NewController(c *cluster.Cluster) *Controller {
	return NewControllerWithOptions(c, Options{})
}

// NewControllerWithOptions assembles a controller with explicit options.
func NewControllerWithOptions(c *cluster.Cluster, opts Options) *Controller {
	ct := &Controller{
		Cluster:    c,
		DB:         NewResourceDB(c),
		Bitstreams: bitstream.NewDatabase(),
		Cache:      bitstream.NewCompileCache(),
		Reg:        telemetry.NewRegistry(),
		Tracer:     telemetry.NewTracer(opts.TraceLimit),
		TSDB:       tsdb.New(tsdb.Options{}),
		deployed:   map[string]*Deployment{},
		log:        newEventLog(),
		opts:       opts,
	}
	ct.TSDB.Register(ct.Reg)
	ct.alertThresholds = DefaultAlertThresholds()
	if opts.Alerts != nil {
		ct.alertThresholds = *opts.Alerts
	}
	ct.registerTelemetry()
	// The pipeline must exist before the alert rules: queue_saturated
	// samples it.
	ct.async = newAsyncPipeline(ct, opts.QueueDepth, opts.QueueWorkers)
	ct.registerAlerts(ct.alertThresholds)
	return ct
}

// Close stops the controller's background machinery (the async deploy
// workers). Queued tickets stop draining; the controller's synchronous
// operations stay usable.
func (ct *Controller) Close() { ct.async.Close() }

// CacheStats snapshots the compile cache's hit/miss counters.
func (ct *Controller) CacheStats() bitstream.CacheStats {
	return ct.Cache.Stats()
}

// clone returns a defensive copy so callers can inspect a deployment without
// racing against Relocate, which mutates Blocks/Programmed under ct.mu.
func (d *Deployment) clone() *Deployment {
	c := *d
	c.Blocks = append([]cluster.GlobalBlockRef(nil), d.Blocks...)
	c.Programmed = append([]*bitstream.Bitstream(nil), d.Programmed...)
	return &c
}

// Deploy places a compiled application onto the cluster: it looks up the
// bitstreams, runs the communication-aware allocator, relocates each
// virtual block's bitstream to its physical block, claims the blocks, and
// creates the app's memory domain and virtual NIC. memQuota is the app's
// DRAM quota on its primary board.
//
// The operation is traced (root span "deploy", one child per phase) and
// its latency recorded in the vital_deploy_seconds histogram — the Fig. 9
// ms-scale deployment claim, observable per deploy rather than on average.
func (ct *Controller) Deploy(app string, memQuota uint64) (dep *Deployment, err error) {
	return ct.DeployCtx(context.Background(), app, memQuota)
}

// DeployCtx is Deploy continuing the trace carried by ctx: the "deploy"
// span becomes a child of the context's span (an async ticket segment
// or an instrumented HTTP request) instead of a fresh root, so a submit
// driven through the gateway reassembles as one cross-process trace.
func (ct *Controller) DeployCtx(ctx context.Context, app string, memQuota uint64) (dep *Deployment, err error) {
	sp := ct.Tracer.StartSpan(ctx, "deploy", telemetry.String("app", app))
	start := time.Now()
	defer func() {
		finishSpan(sp, err)
		ct.lat.deploy.ObserveSince(start)
	}()
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.deployLocked(app, memQuota, sp)
}

// deployLocked is the deployment body; the caller holds ct.mu and owns the
// span and latency accounting. DeploySingleBoard calls it directly so its
// capacity check, drain and deploy share one critical section.
func (ct *Controller) deployLocked(app string, memQuota uint64, sp *telemetry.Span) (*Deployment, error) {
	if _, exists := ct.deployed[app]; exists {
		return nil, fmt.Errorf("sched: %q: %w", app, ErrAlreadyDeployed)
	}
	lsp := sp.Child("bitstream.lookup")
	images, ok := ct.Bitstreams.Lookup(app)
	lsp.End()
	if !ok {
		return nil, fmt.Errorf("sched: no compiled bitstreams for %q", app)
	}
	asp := sp.Child("allocate", telemetry.Int("blocks", len(images)))
	refs, err := Allocate(ct.DB, len(images))
	asp.End()
	if err != nil {
		return nil, err
	}
	// Relocate every virtual block's bitstream to its physical block —
	// no recompilation (Section 3.3, step 5).
	rsp := sp.Child("relocate")
	programmed := make([]*bitstream.Bitstream, len(refs))
	perBoard := map[int]time.Duration{}
	for i, ref := range refs {
		moved, err := images[i].Relocate(ref.BlockRef, ct.Cluster.Boards[ref.Board].Device)
		if err != nil {
			rsp.End()
			return nil, fmt.Errorf("sched: relocating vb%d to %v: %w", i, ref, err)
		}
		programmed[i] = moved
		perBoard[ref.Board] += moved.ReconfigTime()
	}
	rsp.End()
	psp := sp.Child("provision")
	if err := ct.DB.Claim(app, refs); err != nil {
		psp.End()
		return nil, err
	}
	boards := BoardsOf(refs)
	primary := ct.Cluster.Boards[boards[0]]
	if _, err := primary.Mem.CreateDomain(app, memQuota); err != nil {
		ct.DB.ReleaseApp(app)
		psp.End()
		return nil, err
	}
	vnic, err := primary.Net.AttachNIC(app)
	if err != nil {
		_ = primary.Mem.DestroyDomain(app)
		ct.DB.ReleaseApp(app)
		psp.End()
		return nil, err
	}
	psp.End()
	var reconfig time.Duration
	for _, d := range perBoard {
		if d > reconfig {
			reconfig = d
		}
	}
	dep := &Deployment{
		App:          app,
		Blocks:       refs,
		Programmed:   programmed,
		ReconfigTime: reconfig,
		MultiFPGA:    len(boards) > 1,
		Primary:      boards[0],
		VNIC:         vnic,
		MemQuota:     memQuota,
	}
	ct.deployed[app] = dep
	if ct.opts.VerifyOnDeploy {
		vsp := sp.Child("verify")
		rep := ct.verifyLocked()
		vsp.End()
		if !rep.OK() {
			// Roll the deployment back: the cluster must never be left in a
			// state that violates the paper's invariants.
			delete(ct.deployed, app)
			primary.Net.DetachNIC(app)
			_ = primary.Mem.DestroyDomain(app)
			ct.DB.ReleaseApp(app)
			return nil, fmt.Errorf("sched: deploying %q violates invariants: %w", app, rep.Err())
		}
	}
	ct.log.add(EventDeploy, app, fmt.Sprintf("%d blocks on %v", len(refs), boards))
	sp.SetAttr("blocks", fmt.Sprint(len(refs)))
	sp.SetAttr("boards", fmt.Sprint(boards))
	return dep.clone(), nil
}

// Verify re-checks the architectural invariants of Section 3 against the
// live cluster and deployment state: every board's floorplan (identical
// block columns, clock-region alignment, no die crossing, Fig. 7 region
// disjointness) and the resource database (tenant isolation, owner-table
// consistency).
func (ct *Controller) Verify() *verify.Report {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.verifyLocked()
}

func (ct *Controller) verifyLocked() *verify.Report {
	rep := verify.Cluster(ct.Cluster)
	owners, claims := ct.DB.Snapshot()
	// Deployments must agree with the resource database: a deployed block
	// the DB does not attribute to the app means the isolation bookkeeping
	// has drifted. Apps are visited in sorted order so violation reports
	// are deterministic.
	apps := make([]string, 0, len(ct.deployed))
	for app := range ct.deployed {
		apps = append(apps, app)
	}
	sort.Strings(apps)
	for _, app := range apps {
		dep := ct.deployed[app]
		for _, ref := range dep.Blocks {
			if owners[ref] != app {
				rep.Violations = append(rep.Violations, verify.Violation{
					Invariant: verify.InvariantIsolation,
					Detail: fmt.Sprintf("deployment %q uses block %v but resource database records owner %q",
						app, ref, owners[ref]),
				})
			}
		}
	}
	failed := map[int]bool{}
	for b, h := range ct.DB.HealthSnapshot() {
		if h == Failed {
			failed[b] = true
		}
	}
	rep.Merge(verify.Snapshot(&verify.DeploymentSnapshot{
		Cluster:      ct.Cluster,
		Claims:       claims,
		Owners:       owners,
		FailedBoards: failed,
	}))
	// The free-run index must agree with the owner table: every allocation
	// decision reads the index, so drift here silently corrupts placement.
	for _, msg := range ct.DB.VerifyIndex() {
		rep.Violations = append(rep.Violations, verify.Violation{
			Invariant: verify.InvariantFreeIndex,
			Detail:    msg,
		})
	}
	return rep
}

// Undeploy stops an application, releasing blocks, memory and network.
func (ct *Controller) Undeploy(app string) (err error) {
	sp := ct.Tracer.Start("undeploy", telemetry.String("app", app))
	start := time.Now()
	defer func() {
		finishSpan(sp, err)
		ct.lat.undeploy.ObserveSince(start)
	}()
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.undeployLocked(app)
}

func (ct *Controller) undeployLocked(app string) error {
	dep, ok := ct.deployed[app]
	if !ok {
		return fmt.Errorf("sched: %q not deployed", app)
	}
	// Use the primary board recorded at deploy time, not
	// BoardsOf(dep.Blocks)[0]: relocations may have moved every block off
	// the board that holds the app's memory domain and NIC.
	primary := ct.Cluster.Boards[dep.Primary]
	if err := primary.Mem.DestroyDomain(app); err != nil {
		return err
	}
	primary.Net.DetachNIC(app)
	ct.DB.ReleaseApp(app)
	delete(ct.deployed, app)
	ct.log.add(EventUndeploy, app, fmt.Sprintf("%d blocks freed", len(dep.Blocks)))
	return nil
}

// Deployment returns a copy of the running deployment of an app. The copy
// is stable: a later Relocate does not mutate it.
func (ct *Controller) Deployment(app string) (*Deployment, bool) {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	d, ok := ct.deployed[app]
	if !ok {
		return nil, false
	}
	return d.clone(), true
}

// Relocate moves one virtual block of a running application to a specific
// free physical block without recompilation (Fig. 10's flexible sharing).
func (ct *Controller) Relocate(app string, vb int, target cluster.GlobalBlockRef) (err error) {
	sp := ct.Tracer.Start("relocate",
		telemetry.String("app", app), telemetry.Int("vb", vb), telemetry.String("target", target.String()))
	start := time.Now()
	defer func() {
		finishSpan(sp, err)
		ct.lat.relocate.ObserveSince(start)
	}()
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.relocateLocked(app, vb, target)
}

func (ct *Controller) relocateLocked(app string, vb int, target cluster.GlobalBlockRef) error {
	dep, ok := ct.deployed[app]
	if !ok {
		return fmt.Errorf("sched: %q not deployed", app)
	}
	if vb < 0 || vb >= len(dep.Blocks) {
		return fmt.Errorf("sched: %q has no virtual block %d", app, vb)
	}
	if owner := ct.DB.Owner(target); owner != "" {
		return fmt.Errorf("sched: target %v owned by %q", target, owner)
	}
	if h := ct.DB.Health(target.Board); h != Healthy {
		return fmt.Errorf("sched: target %v: board %d is %s: %w", target, target.Board, h, ErrBoardUnhealthy)
	}
	moved, err := dep.Programmed[vb].Relocate(target.BlockRef, ct.Cluster.Boards[target.Board].Device)
	if err != nil {
		return err
	}
	if err := ct.DB.Claim(app, []cluster.GlobalBlockRef{target}); err != nil {
		return err
	}
	// Free the old block: rebuild the app's claim set.
	old := dep.Blocks[vb]
	all := ct.DB.ReleaseApp(app)
	keep := all[:0]
	for _, r := range all {
		if r != old {
			keep = append(keep, r)
		}
	}
	if err := ct.DB.Claim(app, keep); err != nil {
		return err
	}
	dep.Blocks[vb] = target
	dep.Programmed[vb] = moved
	dep.MultiFPGA = len(BoardsOf(dep.Blocks)) > 1
	ct.log.add(EventRelocate, app, fmt.Sprintf("vb%d %v → %v", vb, old, target))
	return nil
}

// Status summarizes the controller state for the API.
type Status struct {
	Boards      int   `json:"boards"`
	TotalBlocks int   `json:"total_blocks"`
	UsedBlocks  int   `json:"used_blocks"`
	FreePerFPGA []int `json:"free_per_fpga"`
	// Health is the per-board health state; FreePerFPGA reads 0 on
	// non-healthy boards (their capacity is not allocatable).
	Health []BoardHealth  `json:"health"`
	Apps   map[string]int `json:"apps"` // app → blocks held
}

// Status reports the cluster occupancy.
func (ct *Controller) Status() Status {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	st := Status{
		Boards:      len(ct.Cluster.Boards),
		TotalBlocks: ct.Cluster.TotalBlocks(),
		UsedBlocks:  ct.DB.UsedBlocks(),
		FreePerFPGA: ct.DB.FreeCount(),
		Health:      ct.DB.HealthSnapshot(),
		Apps:        map[string]int{},
	}
	for app, dep := range ct.deployed {
		st.Apps[app] = len(dep.Blocks)
	}
	return st
}
