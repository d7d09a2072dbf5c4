//go:build race

package sim

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so the allocation pin skips itself under `make race`.
const raceEnabled = true
