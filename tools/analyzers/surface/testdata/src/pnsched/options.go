// Package pnsched is the surface fixture's public package: outside
// internal/ only …Config fields and With… options are checked.
package pnsched

type settings struct{ width, depth int }

// An Option adjusts Start.
type Option func(*settings)

// WithWidth is passed by cmd/tool.
func WithWidth(n int) Option { return func(s *settings) { s.width = n } }

// WithDepth is passed only by a test.
func WithDepth(n int) Option { return func(s *settings) { s.depth = n } } // want "option WithDepth: no non-test file calls it"

// ServeConfig's Addr is set by no one.
type ServeConfig struct {
	Addr string // want "field ServeConfig.Addr: no non-test file sets it"
}

// Start applies opts. An exported func outside internal/ is public
// API, so nothing needs to call it.
func Start(opts ...Option) {
	var s settings
	for _, o := range opts {
		o(&s)
	}
}

// Public has no caller and is not a finding: it is not in internal/.
func Public(c ServeConfig) string { return c.Addr }
