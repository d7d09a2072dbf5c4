// Package layering enforces the repository's import DAG: which
// pnsched packages may depend on which. It replaces the grep-based
// scripts/apicheck.sh with a declarative rule table checked against
// the parsed import declarations, and extends the gate from the
// cmd/examples surface down into the internal tree.
package layering

import (
	"strconv"
	"strings"

	"pnsched/tools/analysis"
)

// Module is the module path rules are written relative to.
const Module = "pnsched"

// A Rule constrains the module-local imports of packages under Scope
// (a module-relative path: exact package or, with a trailing slash, a
// whole subtree). Exactly one of Deny and Only is set: Deny lists
// forbidden module-relative import prefixes, Only the complete set of
// permitted module-local imports (the leaf-package form).
type Rule struct {
	Scope  string
	Deny   []string
	Only   []string
	Reason string
}

// Rules is the repository's layering contract. Every entry is a
// dependency direction the architecture documents (doc.go, README,
// docs/static-analysis.md); the analyzer is what keeps the prose true.
var Rules = []Rule{
	{
		Scope: "cmd/",
		Deny:  []string{"internal/core", "internal/ga", "internal/dist", "internal/jobs"},
		Reason: "binaries construct schedulers and servers through the public " +
			"pnsched registry (pnsched.New / Run / Serve / ServeJobs / Watch), never the GA internals",
	},
	{
		Scope: "cmd/pnsim",
		Deny:  []string{"internal/sim"},
		Reason: "every pnsim run, scenario files included, goes through pnsched.Run, " +
			"the one path into the simulator",
	},
	{
		Scope: "examples/",
		Deny:  []string{"internal/core", "internal/ga", "internal/dist", "internal/jobs"},
		Reason: "examples demonstrate the public API surface; importing the " +
			"internals would document a construction path the library does not support",
	},
	{
		Scope: "internal/core",
		Deny:  []string{"internal/dist", "internal/telemetry"},
		Reason: "the GA core is runtime-agnostic: distribution and telemetry " +
			"layer on top of it, and a reverse edge would make the determinism " +
			"guarantee depend on runtime state",
	},
	{
		Scope: "internal/ga",
		Only:  []string{"internal/rng"},
		Reason: "the GA engine depends only on the injected rng seam, keeping " +
			"its (seed → schedule) function free of every other subsystem",
	},
	{
		Scope: "internal/observe",
		Only:  []string{"internal/task", "internal/units"},
		Reason: "the observer vocabulary is leaf-like: it may name task IDs and " +
			"units, nothing more, so every layer can emit events without cycles",
	},
	{
		Scope: "internal/telemetry",
		Only:  []string{},
		Reason: "the metrics registry is a pure leaf: any pnsched import would " +
			"let instrumentation reach back into what it measures",
	},
	{
		Scope: "internal/scenario",
		Deny:  []string{"internal/sim", "internal/sched"},
		Reason: "a scenario file lowers to a pnsched.Spec and a pnsched.Workload; " +
			"pnsched.Run builds the scheduler and drives the simulator",
	},
	{
		Scope: "internal/jobs",
		Only: []string{
			"internal/dist", "internal/observe", "internal/sched",
			"internal/task", "internal/telemetry", "internal/units",
		},
		Reason: "the job dispatcher composes the distribution layer and the " +
			"scheduling seam; reaching into the GA internals (core, ga, rng) " +
			"would bypass the scheduler registry its per-job specs go through",
	},
}

var Analyzer = &analysis.Analyzer{
	Name: "layering",
	Doc: "enforce the repository import DAG (the apicheck layering gate)\n\n" +
		"cmd/ and examples/ must not import internal/core, internal/ga,\n" +
		"internal/dist or internal/jobs, and cmd/pnsim not internal/sim;\n" +
		"internal/scenario must not import internal/sim or internal/sched;\n" +
		"internal/core must not import internal/dist or internal/telemetry;\n" +
		"internal/ga, internal/observe\n" +
		"and internal/telemetry are leaf-like with explicit allowlists; and\n" +
		"internal/jobs composes only the dist/sched/observe/telemetry seams.",
	Run: run,
}

func run(pass *analysis.Pass) error {
	rel, ok := moduleRel(pass.Path)
	if !ok {
		return nil
	}
	for i := range Rules {
		rule := &Rules[i]
		if !inScope(rel, rule.Scope) {
			continue
		}
		for _, f := range pass.Files {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				impRel, local := moduleRel(path)
				if !local {
					continue // the DAG constrains module-local edges only
				}
				if bad, why := rule.violates(impRel); bad {
					pass.Reportf(imp.Pos(), "package %s must not import %s (%s): %s",
						rel, impRel, why, rule.Reason)
				}
			}
		}
	}
	return nil
}

func (r *Rule) violates(impRel string) (bool, string) {
	if r.Only != nil {
		for _, ok := range r.Only {
			if impRel == ok {
				return false, ""
			}
		}
		return true, "outside its allowlist"
	}
	for _, deny := range r.Deny {
		if impRel == deny || strings.HasPrefix(impRel, deny+"/") {
			return true, "a denied layer"
		}
	}
	return false, ""
}

// moduleRel maps an import path to its module-relative form; the
// module root package itself maps to ".".
func moduleRel(path string) (string, bool) {
	if path == Module {
		return ".", true
	}
	if rest, ok := strings.CutPrefix(path, Module+"/"); ok {
		return rest, true
	}
	return "", false
}

func inScope(rel, scope string) bool {
	if strings.HasSuffix(scope, "/") {
		return strings.HasPrefix(rel, scope)
	}
	return rel == scope || strings.HasPrefix(rel, scope+"/")
}
