package wirejson_test

import (
	"testing"

	"pnsched/tools/analysis/analysistest"
	"pnsched/tools/analyzers/wirejson"
)

func TestWireJSON(t *testing.T) {
	analysistest.Run(t, "testdata", wirejson.Analyzer,
		"pnsched/internal/dist", "pnsched/internal/jobs", "pnsched/internal/observe")
}
