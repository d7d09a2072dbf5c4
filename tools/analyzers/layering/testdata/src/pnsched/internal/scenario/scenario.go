// Package scenario is a layering fixture: a scenario lowers to the
// public spec and workload and names neither the simulator nor the
// scheduling seam.
package scenario

import (
	"pnsched/internal/rng"
	"pnsched/internal/sched" // want `package internal/scenario must not import internal/sched`
	"pnsched/internal/sim"   // want `package internal/scenario must not import internal/sim`
)

var V = rng.V + sched.V + sim.V
