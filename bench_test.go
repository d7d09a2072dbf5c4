// Timing of every regenerable experiment — the paper's figures, then
// the supplementary studies — one sub-benchmark per entry of the
// experiments table:
//
//	go test -run=NONE -bench=Experiments
//
// The rows are wall-clock only. The experiments' numbers are pinned by
// the experiments package's golden test and rendered by cmd/pnbench.
package pnsched_test

import (
	"strconv"
	"testing"

	"pnsched/internal/experiments"
)

// benchProfile is the scale of the experiment benches: small enough
// for `go test -bench=.`, same machinery as the paper profile.
func benchProfile() experiments.Profile {
	p := experiments.Fast()
	p.Workers = 1 // benches measure single-threaded regeneration cost
	return p
}

// BenchmarkExperiments regenerates each experiment once per iteration.
func BenchmarkExperiments(b *testing.B) {
	p := benchProfile()
	var names []string
	for _, fig := range experiments.Figures {
		names = append(names, strconv.Itoa(fig))
	}
	for _, name := range append(names, experiments.Supplementary...) {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunNamed(name, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
