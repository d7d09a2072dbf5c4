// Package dist is a determinism fixture for a scope entry naming one
// file: core.go is checked, while this file, outside the deterministic
// scope, may read wall clocks and nothing fires.
package dist

import "time"

func Uptime(start time.Time) time.Duration {
	return time.Since(start)
}

var Now = time.Now()
