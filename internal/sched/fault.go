package sched

// Board fault tolerance. The homogeneous virtual-block abstraction makes
// surviving a board loss a pure controller decision (Fig. 6): every virtual
// block is relocatable to any free physical block without recompilation
// (Section 3.3, step 5), so when a board fails the controller simply
// re-places the stranded blocks onto healthy boards — the suspend/relocate
// resilience primitive, driven entirely from the resource database.

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"vital/internal/telemetry"
)

// Sentinel errors, matched with errors.Is by API layers to pick status
// codes (HTTP 503 vs 409) and retry behavior.
var (
	// ErrAlreadyDeployed: the application name is already running.
	ErrAlreadyDeployed = errors.New("application already deployed")
	// ErrNoCapacity: the healthy part of the cluster lacks free blocks.
	ErrNoCapacity = errors.New("insufficient free blocks")
	// ErrBoardUnhealthy: the operation requires a board that is not
	// Healthy (placement target degraded/failed, or capacity stranded on
	// unhealthy boards).
	ErrBoardUnhealthy = errors.New("board not healthy")
)

// BoardHealth is the controller's view of one board's hardware state.
type BoardHealth string

const (
	// Healthy: full service; the allocator may place new blocks here.
	Healthy BoardHealth = "healthy"
	// Degraded: existing allocations keep running, but admission stops —
	// the allocator places nothing new on the board (rising ECC error
	// rate, a flapping ring port, thermal throttling).
	Degraded BoardHealth = "degraded"
	// Failed: the board is gone. Every resident virtual block must be
	// evacuated; no live deployment may reference it afterwards.
	Failed BoardHealth = "failed"
)

// FaultKind names an injectable health transition.
type FaultKind string

const (
	// FaultDegrade marks a board Degraded (admission stops).
	FaultDegrade FaultKind = "degrade"
	// FaultFail marks a board Failed and evacuates it.
	FaultFail FaultKind = "fail"
	// FaultRecover returns a board to Healthy.
	FaultRecover FaultKind = "recover"
)

// health maps the transition to the state it leaves the board in.
func (k FaultKind) health() (BoardHealth, error) {
	switch k {
	case FaultDegrade:
		return Degraded, nil
	case FaultFail:
		return Failed, nil
	case FaultRecover:
		return Healthy, nil
	}
	return "", fmt.Errorf("sched: unknown fault kind %q (want degrade|fail|recover)", k)
}

// ParseFaultKind parses a fault kind name, accepting both the transition
// ("fail") and resulting-state ("failed") spellings.
func ParseFaultKind(s string) (FaultKind, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "degrade", "degraded":
		return FaultDegrade, nil
	case "fail", "failed":
		return FaultFail, nil
	case "recover", "healthy":
		return FaultRecover, nil
	}
	return "", fmt.Errorf("sched: unknown fault kind %q (want degrade|fail|recover)", s)
}

// AppEvacuation is the per-application outcome of evacuating a failed
// board.
type AppEvacuation struct {
	App string `json:"app"`
	// Moved counts virtual blocks re-placed onto healthy boards.
	Moved int `json:"moved_blocks"`
	// PrimaryMoved reports that the app's memory domain and virtual NIC
	// were re-created on a healthy board (its primary board failed).
	PrimaryMoved bool `json:"primary_moved,omitempty"`
	// Undeployed reports the capacity-insufficient fallback: the app
	// could not be kept running and was undeployed, with the loss
	// recorded in the audit log.
	Undeployed bool   `json:"undeployed,omitempty"`
	Detail     string `json:"detail,omitempty"`
}

// Evacuation is the report of one InjectFault call.
type Evacuation struct {
	Board  int         `json:"board"`
	Kind   FaultKind   `json:"kind"`
	Health BoardHealth `json:"health"`
	// Apps holds the outcome for every application that had blocks (or
	// its memory domain) on the board, in app-name order; empty for
	// degrade/recover transitions.
	Apps []AppEvacuation `json:"apps,omitempty"`
}

// InjectFault drives one board through a health transition — the
// fault-injection API used by tests, chaos drills, and the reporting path
// of an external health monitor. Degrading a board only stops new
// placements there; failing a board additionally evacuates every resident
// application: its stranded virtual blocks are relocated onto healthy
// boards without recompilation, and if its memory domain lived on the
// failed board it is re-created on the board now hosting most of its
// blocks. When the healthy remainder of the cluster lacks capacity, the
// application is undeployed and the loss reported (EventEvacuate).
func (ct *Controller) InjectFault(board int, kind FaultKind) (ev *Evacuation, err error) {
	sp := ct.Tracer.Start("fault",
		telemetry.Int("board", board), telemetry.String("kind", string(kind)))
	defer func() { finishSpan(sp, err) }()
	ct.mu.Lock()
	defer ct.mu.Unlock()
	health, err := kind.health()
	if err != nil {
		return nil, err
	}
	if err := ct.DB.SetHealth(board, health); err != nil {
		return nil, err
	}
	ct.log.add(EventFault, "", fmt.Sprintf("board %d: %s → %s", board, kind, health))
	ev = &Evacuation{Board: board, Kind: kind, Health: health}
	if kind == FaultFail {
		esp := sp.Child("evacuate")
		start := time.Now()
		ev.Apps = ct.evacuateLocked(board)
		esp.SetAttr("apps", strconv.Itoa(len(ev.Apps)))
		esp.End()
		ct.lat.evacuate.ObserveSince(start)
	}
	return ev, nil
}

// Health reports every board's health state and residency — the substance
// of GET /health.
func (ct *Controller) Health() *HealthReport {
	ct.mu.Lock()
	defer ct.mu.Unlock()
	return ct.healthLocked(ct.DB.BoardStats())
}

// healthLocked assembles the health report from the boards' stats under
// the caller's ct.mu, so Metrics can fold the per-board view into its
// consistent snapshot.
func (ct *Controller) healthLocked(boards []BoardStat) *HealthReport {
	rep := &HealthReport{AllHealthy: true}
	residents := make([]map[string]bool, len(boards))
	for app, dep := range ct.deployed {
		for _, blk := range dep.Blocks {
			if residents[blk.Board] == nil {
				residents[blk.Board] = map[string]bool{}
			}
			residents[blk.Board][app] = true
		}
	}
	for b, st := range boards {
		if st.Health != Healthy {
			rep.AllHealthy = false
		}
		info := BoardHealthInfo{Board: b, Health: st.Health, FreeBlocks: st.Free, UsedBlocks: st.Used}
		for app := range residents[b] {
			info.Apps = append(info.Apps, app)
		}
		sort.Strings(info.Apps)
		rep.Boards = append(rep.Boards, info)
	}
	return rep
}

// BoardHealthInfo is one board's entry in the health report. FreeBlocks is
// allocatable capacity, so it reads 0 on degraded and failed boards even
// when blocks are physically unoccupied.
type BoardHealthInfo struct {
	Board      int         `json:"board"`
	Health     BoardHealth `json:"health"`
	FreeBlocks int         `json:"free_blocks"`
	UsedBlocks int         `json:"used_blocks"`
	Apps       []string    `json:"apps,omitempty"`
}

// HealthReport summarizes per-board health and occupancy.
type HealthReport struct {
	AllHealthy bool              `json:"all_healthy"`
	Boards     []BoardHealthInfo `json:"boards"`
}

// evacuateLocked re-places every application affected by a board failure.
// Apps are processed in sorted name order so the outcome (who gets the
// remaining capacity when it is scarce) is deterministic.
func (ct *Controller) evacuateLocked(board int) []AppEvacuation {
	apps := make([]string, 0, len(ct.deployed))
	for app, dep := range ct.deployed {
		affected := dep.Primary == board
		for _, blk := range dep.Blocks {
			if blk.Board == board {
				affected = true
				break
			}
		}
		if affected {
			apps = append(apps, app)
		}
	}
	sort.Strings(apps)
	out := make([]AppEvacuation, 0, len(apps))
	for _, app := range apps {
		out = append(out, ct.evacuateAppLocked(app, board))
	}
	return out
}

// evacuateAppLocked moves one application off a failed board: each
// stranded virtual block is relocated to a healthy board (FreeOnBoard is
// health-aware, so degraded and failed boards contribute no targets), then
// the memory domain and virtual NIC follow if the failed board was the
// app's primary. Any shortfall falls back to undeploy-with-reported-loss.
func (ct *Controller) evacuateAppLocked(app string, board int) AppEvacuation {
	dep := ct.deployed[app]
	var vbs []int
	for vb, blk := range dep.Blocks {
		if blk.Board == board {
			vbs = append(vbs, vb)
		}
	}
	freeHealthy := 0
	for b := range ct.Cluster.Boards {
		freeHealthy += len(ct.DB.FreeOnBoard(b))
	}
	if freeHealthy < len(vbs) {
		return ct.evacuateUndeployLocked(app, board,
			fmt.Sprintf("insufficient capacity: %d blocks stranded, %d free on healthy boards", len(vbs), freeHealthy))
	}
	res := AppEvacuation{App: app}
	for _, vb := range vbs {
		target, err := ct.drainTargetLocked(app, board)
		if err == nil {
			err = ct.relocateLocked(app, vb, target)
		}
		if err != nil {
			return ct.evacuateUndeployLocked(app, board, fmt.Sprintf("re-placing vb%d: %v", vb, err))
		}
		res.Moved++
	}
	if dep.Primary == board {
		if err := ct.migratePrimaryLocked(dep); err != nil {
			return ct.evacuateUndeployLocked(app, board, fmt.Sprintf("migrating primary: %v", err))
		}
		res.PrimaryMoved = true
	}
	res.Detail = fmt.Sprintf("%d blocks re-placed off board %d", res.Moved, board)
	ct.log.add(EventEvacuate, app, res.Detail)
	return res
}

// evacuateUndeployLocked is the capacity-insufficient fallback: the
// application cannot be kept running, so it is undeployed and the loss
// reported in the audit log.
func (ct *Controller) evacuateUndeployLocked(app string, board int, reason string) AppEvacuation {
	blocks := len(ct.deployed[app].Blocks)
	detail := fmt.Sprintf("board %d failed: undeployed (%d blocks lost): %s", board, blocks, reason)
	if err := ct.undeployLocked(app); err != nil {
		detail += fmt.Sprintf(" (cleanup: %v)", err)
	}
	ct.log.add(EventEvacuate, app, detail)
	return AppEvacuation{App: app, Undeployed: true, Detail: detail}
}

// migratePrimaryLocked re-creates an application's memory domain and
// virtual NIC on a healthy board after its primary board failed. The
// device-side state died with the board; the controller re-provisions the
// domain at the same quota on the board now hosting the most of the app's
// blocks (minimizing remote-memory ring hops).
func (ct *Controller) migratePrimaryLocked(dep *Deployment) error {
	counts := map[int]int{}
	for _, blk := range dep.Blocks {
		counts[blk.Board]++
	}
	best := -1
	for b := range ct.Cluster.Boards {
		if b == dep.Primary || ct.DB.Health(b) != Healthy {
			continue
		}
		if best == -1 || counts[b] > counts[best] {
			best = b
		}
	}
	if best == -1 {
		return fmt.Errorf("sched: no healthy board for %q's memory domain: %w", dep.App, ErrBoardUnhealthy)
	}
	// Best-effort teardown of the dead board's bookkeeping, so a later
	// FaultRecover starts from a clean slate.
	old := ct.Cluster.Boards[dep.Primary]
	old.Net.DetachNIC(dep.App)
	_ = old.Mem.DestroyDomain(dep.App)
	nb := ct.Cluster.Boards[best]
	if _, err := nb.Mem.CreateDomain(dep.App, dep.MemQuota); err != nil {
		return fmt.Errorf("sched: re-creating %q's memory domain on board %d: %w", dep.App, best, err)
	}
	vnic, err := nb.Net.AttachNIC(dep.App)
	if err != nil {
		_ = nb.Mem.DestroyDomain(dep.App)
		return fmt.Errorf("sched: re-attaching %q's NIC on board %d: %w", dep.App, best, err)
	}
	dep.Primary = best
	dep.VNIC = vnic
	return nil
}

// FaultStep is one scripted health transition.
type FaultStep struct {
	Board int       `json:"board"`
	Kind  FaultKind `json:"kind"`
}

// FaultPlan is a deterministic fault schedule: steps apply strictly in
// order, each one — including any evacuation it triggers — completing
// before the next begins. Tests and the vitald -fault flag use it to
// reproduce failure scenarios exactly.
type FaultPlan struct {
	Steps []FaultStep `json:"steps"`
}

// ApplyFaultPlan runs every step of the plan in order, returning one
// report per completed step. It stops at the first invalid step.
func (ct *Controller) ApplyFaultPlan(plan FaultPlan) ([]*Evacuation, error) {
	out := make([]*Evacuation, 0, len(plan.Steps))
	for i, s := range plan.Steps {
		ev, err := ct.InjectFault(s.Board, s.Kind)
		if err != nil {
			return out, fmt.Errorf("sched: fault plan step %d (%s board %d): %w", i, s.Kind, s.Board, err)
		}
		out = append(out, ev)
	}
	return out, nil
}

// ParseFaultPlan parses a comma-separated list of board:kind pairs, e.g.
// "2:fail,3:degrade,2:recover". Empty elements are skipped, so a trailing
// comma is harmless.
func ParseFaultPlan(s string) (FaultPlan, error) {
	var plan FaultPlan
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		bs, ks, ok := strings.Cut(part, ":")
		if !ok {
			return FaultPlan{}, fmt.Errorf("sched: fault step %q: want board:kind", part)
		}
		board, err := strconv.Atoi(strings.TrimSpace(bs))
		if err != nil {
			return FaultPlan{}, fmt.Errorf("sched: fault step %q: bad board number: %w", part, err)
		}
		kind, err := ParseFaultKind(ks)
		if err != nil {
			return FaultPlan{}, fmt.Errorf("sched: fault step %q: %w", part, err)
		}
		plan.Steps = append(plan.Steps, FaultStep{Board: board, Kind: kind})
	}
	return plan, nil
}
