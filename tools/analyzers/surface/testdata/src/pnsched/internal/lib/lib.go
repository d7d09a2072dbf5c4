// Package lib is the surface fixture's internal package: every
// exported name is either reached from a non-test file of the module,
// or a finding.
package lib

import "fmt"

// Unused has no caller at all.
func Unused() {} // want "func Unused: no non-test file references it"

// Recurse calls only itself, which is not a caller.
func Recurse(n int) int { // want "func Recurse: no non-test file references it"
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

// Limit is read by nothing.
const Limit = 3 // want "const Limit: no non-test file references it"

// Orphan is never named.
type Orphan struct{} // want "type Orphan: no non-test file references it"

// Lonely is named only by its own method, and that method is reached
// through fmt.Stringer, so only the type is a finding.
type Lonely struct{ n int } // want "type Lonely: no non-test file references it"

func (l Lonely) String() string { return fmt.Sprint(l.n) }

// Counter is used from cmd/tool; one of its methods is not.
type Counter struct{ n int }

func (c *Counter) Inc() { c.n++ }

func (c *Counter) Reset() { c.n = 0 } // want "method Counter.Reset: no non-test file references it"

// A Shape is what Total sums; Square is only ever used as one, so its
// Area needs no named caller.
type Shape interface{ Area() float64 }

type Square struct{ Side float64 }

func (s Square) Area() float64 { return s.Side * s.Side }

func Total(shapes []Shape) float64 {
	var t float64
	for _, s := range shapes {
		t += s.Area()
	}
	return t
}

// Wire goes over the wire: encoding/json reads its tagged fields.
type Wire struct {
	ID   int    `json:"id"`
	Note string `json:"note"`
}

// RunConfig's Limit is read by Run but set by no one.
type RunConfig struct {
	Steps int
	Limit int // want "field RunConfig.Limit: no non-test file sets it"
	Depth int
}

func Run(c RunConfig) int { return c.Steps + c.Limit + c.Depth }

// Stats has an exported field that nothing reads.
type Stats struct {
	Hits   int
	Misses int // want "field Stats.Misses: no non-test file references it"
}

func UsedByCmd() Stats { return Stats{} }

func UsedByExample() {}

func UsedByBench() {}

// Kept waits for a caller a later change brings.
func Kept() {} //pnanalyze:ok surface ROADMAP item 6: the stepped loop calls it
