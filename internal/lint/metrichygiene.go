package lint

import (
	"go/ast"
	"go/token"
	"regexp"
	"strconv"
	"strings"
)

// MetricHygiene keeps the vital_* metric namespace coherent across the
// JSON /metrics snapshot, the Prometheus exposition and the alert-rule
// queries. Three surfaces reference the same names by string literal, and
// nothing but convention keeps them aligned; this analyzer makes the
// convention checkable:
//
//   - every vital_* name must be snake_case ^vital_[a-z0-9_]+$;
//   - a name must be declared with one metric type and one help string —
//     re-declaring vital_x as a counter here and a gauge there splits the
//     series at scrape time;
//   - Prometheus suffix conventions hold: counters end _total, latency
//     histograms end _seconds, and gauges must NOT end _total (a _total
//     suffix promises monotonicity that a gauge cannot keep, which breaks
//     rate() over the series);
//   - every vital_* literal that is not itself a declaration (dashboard
//     expectations, smoke-test scrape lists, alert queries) must resolve —
//     after stripping a histogram's _bucket/_sum/_count suffix — to a
//     declared metric, so renames cannot leave dangling references;
//   - label keys (the L("key", ...) arguments of a declaration) must come
//     from the reviewed allowlist below — label keys are the cardinality
//     contract, and a new key mints a new series dimension per value, so
//     adding one is a review event, not a drive-by;
//   - the "tenant" key is reserved for the vital_tenant_* namespace: it is
//     the only per-principal dimension, and confining it keeps every other
//     series tenant-blind (safe to aggregate, safe to expose).
//
// Declarations are calls to Counter/CounterFunc/Gauge/GaugeFunc/Histogram
// methods whose first argument is a vital_* string literal (the
// internal/telemetry Registry API; matched by method name so fixture
// modules need not import the package), and to CounterDesc/GaugeDesc,
// which declare a family for a collector to emit into: their label keys
// are the string literals after the help argument.
var MetricHygiene = &Analyzer{
	Name:       "metrichygiene",
	Doc:        "vital_* metrics: one declaration per name, consistent type/help, Prometheus suffix conventions",
	RunProgram: runMetricHygiene,
}

var metricNameRE = regexp.MustCompile(`^vital_[a-z0-9_]+$`)

// metricLabelAllowlist is the reviewed label-key vocabulary. Every key
// here has a bounded value set (board indices, priority classes, HTTP
// routes, configured tenants, ...); extending the list is the reviewed
// way to add a series dimension.
var metricLabelAllowlist = map[string]bool{
	"app":     true,
	"board":   true,
	"cache":   true,
	"class":   true,
	"code":    true,
	"dir":     true,
	"func":    true,
	"kind":    true,
	"op":      true,
	"outcome": true,
	"route":   true,
	"rule":    true,
	"segment": true,
	"stage":   true,
	"tenant":  true,
	"tier":    true,
	"window":  true,
}

// tenantMetricPrefix is the only namespace allowed to carry the "tenant"
// label.
const tenantMetricPrefix = "vital_tenant_"

// metricKind is the declared metric type.
type metricKind string

// declMethods maps Registry method names to the metric kind they declare.
var declMethods = map[string]metricKind{
	"Counter":     "counter",
	"CounterFunc": "counter",
	"CounterDesc": "counter",
	"Gauge":       "gauge",
	"GaugeFunc":   "gauge",
	"GaugeDesc":   "gauge",
	"Histogram":   "histogram",
}

type metricDecl struct {
	name   string
	kind   metricKind
	help   string // empty when the help argument is not a literal
	pos    token.Pos
	labels []metricLabel
}

// metricLabel is one literal L("key", ...) argument of a declaration.
type metricLabel struct {
	key string
	pos token.Pos
}

func runMetricHygiene(pass *ProgramPass) {
	var decls []metricDecl
	declLits := map[*ast.BasicLit]bool{}
	var refs []*ast.BasicLit

	for _, pkg := range pass.Program.Packages {
		for _, f := range pkg.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if d, lit := metricDeclOf(call); lit != nil {
						decls = append(decls, d)
						declLits[lit] = true
					}
				}
				return true
			})
			// Second sweep: every other vital_* literal is a reference.
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING || declLits[lit] {
					return true
				}
				// A trailing underscore marks a namespace prefix (e.g.
				// "vital_tenant_"), not a series name — skip those.
				if s, err := strconv.Unquote(lit.Value); err == nil && strings.HasPrefix(s, "vital_") && !strings.HasSuffix(s, "_") && metricNameRE.MatchString(s) {
					refs = append(refs, lit)
				}
				return true
			})
		}
	}

	declared := map[string]metricDecl{}
	for _, d := range decls {
		if !metricNameRE.MatchString(d.name) {
			pass.Reportf(d.pos, "metric name %q is not snake_case (want ^vital_[a-z0-9_]+$)", d.name)
			continue
		}
		switch d.kind {
		case "counter":
			if !strings.HasSuffix(d.name, "_total") {
				pass.Reportf(d.pos, "counter %s must end in _total (Prometheus counter convention)", d.name)
			}
		case "histogram":
			if !strings.HasSuffix(d.name, "_seconds") {
				pass.Reportf(d.pos, "histogram %s must end in _seconds (latency histograms are measured in seconds)", d.name)
			}
		case "gauge":
			if strings.HasSuffix(d.name, "_total") {
				pass.Reportf(d.pos, "gauge %s must not end in _total (_total promises a monotonic counter; rate() over a gauge is wrong)", d.name)
			}
		}
		for _, l := range d.labels {
			if !metricLabelAllowlist[l.key] {
				pass.Reportf(l.pos, "metric %s uses label key %q outside the reviewed allowlist (new keys mint series dimensions; extend metricLabelAllowlist after review)", d.name, l.key)
			}
			if l.key == "tenant" && !strings.HasPrefix(d.name, tenantMetricPrefix) {
				pass.Reportf(l.pos, "label \"tenant\" is reserved for %s* series; %s must stay tenant-blind", tenantMetricPrefix, d.name)
			}
		}
		prev, seen := declared[d.name]
		if !seen {
			declared[d.name] = d
			continue
		}
		if prev.kind != d.kind {
			pass.Reportf(d.pos, "metric %s declared as %s at %s but re-declared here as %s",
				d.name, prev.kind, shortPos(pass.Program.Fset.Position(prev.pos)), d.kind)
		}
		if prev.help != "" && d.help != "" && prev.help != d.help {
			pass.Reportf(d.pos, "metric %s declared with different help text than at %s (one series, one help string)",
				d.name, shortPos(pass.Program.Fset.Position(prev.pos)))
		}
	}

	for _, lit := range refs {
		s, _ := strconv.Unquote(lit.Value)
		base := s
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if strings.HasSuffix(s, suffix) {
				base = strings.TrimSuffix(s, suffix)
				break
			}
		}
		if _, ok := declared[base]; !ok {
			pass.Reportf(lit.Pos(), "reference to undeclared metric %q (no Counter/Gauge/Histogram declares it)", s)
		}
	}
}

// metricDeclOf recognizes reg.Counter("vital_x", "help", ...)-shaped calls
// and returns the declaration plus the name literal (nil when the call is
// not a metric declaration).
func metricDeclOf(call *ast.CallExpr) (metricDecl, *ast.BasicLit) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || len(call.Args) == 0 {
		return metricDecl{}, nil
	}
	kind, ok := declMethods[sel.Sel.Name]
	if !ok {
		return metricDecl{}, nil
	}
	lit, ok := ast.Unparen(call.Args[0]).(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return metricDecl{}, nil
	}
	name, err := strconv.Unquote(lit.Value)
	if err != nil || !strings.HasPrefix(name, "vital_") {
		return metricDecl{}, nil
	}
	d := metricDecl{name: name, kind: kind, pos: lit.Pos()}
	if len(call.Args) > 1 {
		if h, ok := ast.Unparen(call.Args[1]).(*ast.BasicLit); ok && h.Kind == token.STRING {
			if s, err := strconv.Unquote(h.Value); err == nil {
				d.help = s
			}
		}
	}
	isDesc := strings.HasSuffix(sel.Sel.Name, "Desc")
	for i, arg := range call.Args[1:] {
		// A label key is the first argument of an L(...) call or, in a
		// Desc declaration, a literal after the help string.
		key := ast.Unparen(arg)
		if c, ok := key.(*ast.CallExpr); ok && len(c.Args) > 0 && callName(c.Fun) == "L" {
			key = ast.Unparen(c.Args[0])
		} else if !isDesc || i == 0 {
			continue
		}
		kl, ok := key.(*ast.BasicLit)
		if !ok || kl.Kind != token.STRING {
			continue
		}
		if key, err := strconv.Unquote(kl.Value); err == nil {
			d.labels = append(d.labels, metricLabel{key: key, pos: kl.Pos()})
		}
	}
	return d, lit
}

// callName is the bare name of a call target: L for both L(...) and
// telemetry.L(...).
func callName(fn ast.Expr) string {
	switch e := ast.Unparen(fn).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return e.Sel.Name
	}
	return ""
}
