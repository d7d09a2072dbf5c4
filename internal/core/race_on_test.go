//go:build race

package core

// raceEnabled reports that the race detector is on: its instrumentation
// allocates, so the allocation pins skip themselves under `make race`.
const raceEnabled = true
