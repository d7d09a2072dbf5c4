//go:build race

package jobs

// raceEnabled reports that the race detector is on: it makes sync.Pool
// drop items at random, so encoding/json reallocates the encoder state
// it pools, and the journal's allocation pin skips itself.
const raceEnabled = true
