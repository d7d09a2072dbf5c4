package layering_test

import (
	"testing"

	"pnsched/tools/analysis/analysistest"
	"pnsched/tools/analyzers/layering"
)

func TestLayering(t *testing.T) {
	analysistest.Run(t, "testdata", layering.Analyzer,
		"pnsched/cmd/demo",
		"pnsched/cmd/pnsim",
		"pnsched/examples/demo",
		"pnsched/internal/core",
		"pnsched/internal/ga",
		"pnsched/internal/jobs",
		"pnsched/internal/observe",
		"pnsched/internal/scenario",
		"pnsched/internal/telemetry",
	)
}
