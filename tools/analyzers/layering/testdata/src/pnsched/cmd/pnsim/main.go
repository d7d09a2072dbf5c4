// Command pnsim is a layering fixture: the simulator is reached only
// through pnsched.Run.
package main

import (
	"pnsched/internal/sim" // want `package cmd/pnsim must not import internal/sim`
	"pnsched/internal/units"
)

func main() {
	_ = sim.V + units.V
}
