package lib

import "testing"

// Test files are never loaded: these references do not count.
func TestUnused(t *testing.T) {
	Unused()
	_ = Limit
	var c Counter
	c.Reset()
}
