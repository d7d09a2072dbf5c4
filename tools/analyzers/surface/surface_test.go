package surface_test

import (
	"testing"

	"pnsched/tools/analysis/analysistest"
	"pnsched/tools/analyzers/surface"
)

func TestSurface(t *testing.T) {
	analysistest.Run(t, "testdata", surface.Analyzer,
		"pnsched",
		"pnsched/bench",
		"pnsched/cmd/tool",
		"pnsched/examples/demo",
		"pnsched/internal/lib",
	)
}
