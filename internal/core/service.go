package core

import (
	"context"
	"errors"
	"fmt"

	"vital/internal/bitstream"
	"vital/internal/workload"
)

// Sentinel errors of the serving tier (CompileSpec / ExecuteByName); the
// HTTP handler maps them onto status codes.
var (
	// ErrDesignConflict: an app name is already bound to a structurally
	// different design. Renaming is free (bitstreams rebrand); silently
	// swapping the logic under a deployed name is not.
	ErrDesignConflict = errors.New("app name bound to a different design")
	// ErrUnknownApp: the named app was never compiled through this stack.
	ErrUnknownApp = errors.New("app not compiled")
	// ErrNotDeployed: the app is compiled but not currently placed, so it
	// cannot execute.
	ErrNotDeployed = errors.New("app not deployed")
	// ErrTooManyTokens: an execute asked for more than MaxExecuteTokens.
	ErrTooManyTokens = errors.New("too many tokens")
)

// CompileSpec compiles a Table 2 workload spec ("<benchmark>-<S|M|L>")
// under an application name and registers it in the stack's named-app
// registry, making it deployable over HTTP and runnable via
// ExecuteByName. An empty appName defaults to the spec string.
//
// The call is idempotent: repeating it with the same (app, design) pair
// returns the registered artifacts without compiling, and even a cold
// repeat of the same *design* under a new name is served from the
// controller's content-addressed compile cache — a hash, a lookup, and a
// rebranding clone. Concurrent compiles of one design under different
// names coalesce: one caller runs the flow and fills the cache while the
// others wait, then take the cache-hit path, so N racing names cost one
// miss and N−1 hits. Re-binding an existing name to a structurally
// different design fails with ErrDesignConflict. The registry keeps, and
// every call returns, the served part of the compile only: no netlist,
// partition or P&R result outlives the compile that made it.
func (s *Stack) CompileSpec(ctx context.Context, design, appName string) (*CompiledApp, error) {
	app, _, err := s.compileSpec(ctx, design, appName)
	return app, err
}

// compileSpec is CompileSpec, also reporting whether the call waited on
// another caller's in-flight compile of the same design.
func (s *Stack) compileSpec(ctx context.Context, design, appName string) (app *CompiledApp, coalesced bool, err error) {
	spec, err := workload.ParseSpec(design)
	if err != nil {
		return nil, false, fmt.Errorf("core: compile spec: %w", err)
	}
	if appName == "" {
		appName = design
	}
	d := workload.BuildDesign(spec)
	d.Name = appName
	dkey := s.designKey(d)

	s.mu.Lock()
	if reg, ok := s.apps[appName]; ok {
		s.mu.Unlock()
		if reg.dkey == dkey {
			return reg.app, false, nil
		}
		return nil, false, fmt.Errorf("core: app %q: %w", appName, ErrDesignConflict)
	}
	s.mu.Unlock()

	var compiled *CompiledApp
	coalesced = s.flights.Do(dkey, func() {
		compiled, err = s.compile(ctx, d, dkey, CompileOptions{})
	})
	if coalesced {
		// The leader's compile filled the cache, so this is a hit. Had it
		// failed, this compiles under the caller's own context.
		compiled, err = s.compile(ctx, d, dkey, CompileOptions{})
	}
	if err != nil {
		return nil, coalesced, err
	}
	app = compiled.cloneFor(appName)

	s.mu.Lock()
	defer s.mu.Unlock()
	if reg, ok := s.apps[appName]; ok {
		// A racing twin registered first. Same design: its artifacts are
		// interchangeable with ours (the compile flow is deterministic and
		// the bitstream database's Store replaces idempotently), so return
		// the registered copy. Different design: the name is taken.
		if reg.dkey == dkey {
			return reg.app, coalesced, nil
		}
		return nil, coalesced, fmt.Errorf("core: app %q: %w", appName, ErrDesignConflict)
	}
	s.apps[appName] = &registeredApp{app: app, dkey: dkey}
	return app, coalesced, nil
}

// App returns a named app from the registry.
func (s *Stack) App(name string) (*CompiledApp, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	reg, ok := s.apps[name]
	if !ok {
		return nil, false
	}
	return reg.app, true
}

// DesignKeyOf returns the design key a registered app was compiled from.
func (s *Stack) DesignKeyOf(name string) (bitstream.CacheKey, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	reg, ok := s.apps[name]
	if !ok {
		return bitstream.CacheKey{}, false
	}
	return reg.dkey, true
}

// ExecuteByName runs a registered, deployed application for the given
// number of tokens on its current placement — the by-name flavor of
// Execute that the HTTP serving tier drives (POST /execute).
func (s *Stack) ExecuteByName(app string, tokens uint64) (*ExecutionStats, error) {
	ca, ok := s.App(app)
	if !ok {
		return nil, fmt.Errorf("core: %q: %w", app, ErrUnknownApp)
	}
	p, ok, err := s.boundPlan(ca)
	switch {
	case !ok:
		return nil, fmt.Errorf("core: %q: %w", app, ErrNotDeployed)
	case err != nil:
		return nil, err
	}
	if err := checkTokens(tokens); err != nil {
		return nil, err
	}
	return s.execute(p, tokens, cycleBudget(tokens))
}
