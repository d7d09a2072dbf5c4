package core

import (
	"fmt"
	"testing"

	"pnsched/internal/ga"
	"pnsched/internal/rng"
	"pnsched/internal/units"
)

// BenchmarkRebalanceSlot is one generation's §3.5 pass in slot mode —
// ApplySlot once per individual of a converged population of 20 — over
// the 200-task batch on 8 processors (the live dispatcher's shape) and
// on 50 (the paper's):
//
//	go test ./internal/core -run=NONE -bench=BenchmarkRebalanceSlot
//
// The population is an evolved best schedule and near-copies of it, up
// to three swaps away, as the GA's late generations hold. Each op
// restores the population and its cached states and takes its RNG from
// a cycle of 16 seeds, so every b.N measures the same inputs.
func BenchmarkRebalanceSlot(b *testing.B) {
	for _, m := range []int{liveBenchProcs, evolveBenchProcs} {
		b.Run(fmt.Sprintf("M=%d", m), func(b *testing.B) {
			p := benchProblem(evolveBenchTasks, m, 4242)
			cfg := DefaultConfig()
			cfg.Generations = liveBenchGens
			r := rng.New(1)
			best := Evolve(p, cfg, ListPopulation(p, cfg.Population, r), units.Inf(), r).Result.Best

			ev := NewIncrementalEvaluator(p)
			ev.InitSlots(cfg.Population)
			pop := make([]ga.Chromosome, cfg.Population)
			work := make([]ga.Chromosome, cfg.Population)
			states := make([]slotState, cfg.Population)
			for k := range pop {
				pop[k] = best.Clone()
				for range k % 4 {
					ga.SwapMutation(pop[k], r)
				}
				work[k] = pop[k].Clone()
				ev.FitnessSlot(k, pop[k])
				states[k].copyFrom(ev.slot(k))
			}
			var seeds [16]rng.RNG
			for k := range seeds {
				seeds[k] = *rng.New(uint64(k))
			}
			rb := NewRebalancer(p)
			rb.BindSlots(ev)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r := seeds[i%len(seeds)]
				for k := range work {
					copy(work[k], pop[k])
					ev.slot(k).copyFrom(&states[k])
					rb.ApplySlot(k, work[k], 1, &r)
				}
			}
		})
	}
}
