// Package jobs is a layering fixture: the dispatcher composes the
// distribution and observation seams but must not reach the GA core —
// nor the §3.6 smoothers, which belong to the worker pool it owns.
package jobs

import (
	"pnsched/internal/core" // want `package internal/jobs must not import internal/core`
	"pnsched/internal/dist"
	"pnsched/internal/observe"
	"pnsched/internal/smoothing" // want `package internal/jobs must not import internal/smoothing \(outside its allowlist\)`
)

var V = core.V + dist.V + observe.V + smoothing.V
