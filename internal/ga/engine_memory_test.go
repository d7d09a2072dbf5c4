package ga

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"pnsched/internal/rng"
)

// TestEngineInvariants: what the arena makes load-bearing is checked
// where the engine is built, not generations later inside a crossover.
func TestEngineInvariants(t *testing.T) {
	ragged := func(short int) []Chromosome {
		pop := randomPopulation(8, 6, rng.New(40))
		pop[short] = pop[short][:7]
		return pop
	}
	for _, tc := range []struct {
		name    string
		cfg     Config
		seeds   []Chromosome
		migrant Chromosome
		want    string // substring of the panic
	}{
		{"ragged seeds", Config{}, ragged(4), nil, "initial chromosome 4 has length 7"},
		// A population of two breeds no crossover pairs.
		{"ragged seeds, crossover off", Config{PopulationSize: 2}, ragged(2), nil, "initial chromosome 2 has length 7"},
		{"ragged seed beyond the trim", Config{PopulationSize: 3}, ragged(5), nil, "initial chromosome 5 has length 7"},
		{"short migrant", Config{}, randomPopulation(8, 6, rng.New(41)), Chromosome{0, 1, 2}, "migrant 0 has length 3"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if got := fmt.Sprint(recover()); !strings.Contains(got, tc.want) {
					t.Errorf("panic %q, want one naming %q", got, tc.want)
				}
			}()
			e := NewEngine(tc.cfg, sortednessEvaluator{}, tc.seeds, rng.New(42))
			e.Inject([]Chromosome{tc.migrant})
		})
	}
}

// TestCrossoverPairsPerGeneration: the paper's crossover fraction 0.8
// resolves to ⌊0.8·n/2⌋ pairs per generation, so Step breeds exactly
// those pairs and fills the rest by selection.
func TestCrossoverPairsPerGeneration(t *testing.T) {
	for _, tc := range []struct {
		pop       int
		wantPairs int // per generation
	}{
		{10, 4},
		{5, 2}, // odd population: two pairs and one survivor
		{2, 0},
		{1, 0},
	} {
		pairs := 0
		counting := func(c1, c2, a, b Chromosome, s *Scratch, r *rng.RNG) {
			pairs++
			CX(c1, c2, a, b, s, r)
		}
		r := rng.New(43)
		eval := &derivationCounter{cachingSlotEval: cachingSlotEval{inner: sortednessEvaluator{}}}
		const gens = 6
		res := Run(Config{MaxGenerations: gens, PopulationSize: tc.pop, Crossover: counting},
			eval, randomPopulation(9, tc.pop, r), r)
		if pairs != gens*tc.wantPairs {
			t.Errorf("population %d: %d crossovers in %d generations, want %d per generation",
				tc.pop, pairs, gens, tc.wantPairs)
		}
		if eval.children != 2*pairs || eval.children+eval.clones != gens*tc.pop {
			t.Errorf("population %d: %d crossed + %d cloned slots, want %d children and %d slots in all",
				tc.pop, eval.children, eval.clones, 2*pairs, gens*tc.pop)
		}
		if err := res.Best.ValidatePermutation(); err != nil {
			t.Errorf("population %d: %v", tc.pop, err)
		}
	}
}

// derivationCounter counts how the engine says each next-generation
// slot was derived.
type derivationCounter struct {
	cachingSlotEval
	children, clones int
}

func (e *derivationCounter) DeriveCross(dst, src int, c Chromosome, changed []int) {
	e.children++
	e.cachingSlotEval.DeriveCross(dst, src, c, changed)
}

func (e *derivationCounter) DeriveClone(dst, src int) {
	e.clones++
	e.cachingSlotEval.DeriveClone(dst, src)
}

// scribble overwrites every chromosome it is given.
func scribble(cs ...Chromosome) {
	for _, c := range cs {
		for i := range c {
			c[i] = -99
		}
	}
}

// TestEngineResultsAreClones: what Best, Result and Elites return
// belongs to the caller — writing to it changes no later generation,
// and stepping on changes none of it.
func TestEngineResultsAreClones(t *testing.T) {
	newEngine := func() *Engine {
		r := rng.New(44)
		return NewEngine(Config{MaxGenerations: 80, PopulationSize: 10, Elitism: true},
			sortednessEvaluator{}, randomPopulation(12, 10, r), r)
	}
	clean, vandal := newEngine(), newEngine()
	var kept, snapshot []Chromosome
	for clean.Step() {
		vandal.Step()
		best, _ := vandal.Best()
		got := append(vandal.Elites(3), best, vandal.Result().Best)
		if vandal.Generation() == 10 {
			for _, c := range got {
				kept, snapshot = append(kept, c), append(snapshot, c.Clone())
			}
			continue
		}
		scribble(got...)
	}
	a, b := clean.Result(), vandal.Result()
	if !slices.Equal(a.Best, b.Best) || a.BestFitness != b.BestFitness || a.Evaluations != b.Evaluations {
		t.Errorf("writing to returned chromosomes changed the run: %+v vs %+v", a, b)
	}
	for i, c := range clean.Elites(10) {
		if !slices.Equal(c, vandal.Elites(10)[i]) {
			t.Errorf("final populations differ at elite %d", i)
		}
	}
	for i := range kept {
		if !slices.Equal(kept[i], snapshot[i]) {
			t.Errorf("chromosome %d returned at generation 10 changed under later steps: %v, was %v", i, kept[i], snapshot[i])
		}
	}
}

// TestEngineCopiesMigrants: an injected migrant is copied into a slot,
// so what its donor does with it afterwards stays with the donor.
func TestEngineCopiesMigrants(t *testing.T) {
	r := rng.New(45)
	donor := NewEngine(Config{MaxGenerations: 30, PopulationSize: 8}, sortednessEvaluator{}, randomPopulation(10, 8, r), r)
	for donor.Generation() < 20 && donor.Step() {
	}
	run := func(vandalise bool) Result {
		rr := rng.New(46)
		e := NewEngine(Config{MaxGenerations: 30, PopulationSize: 8}, sortednessEvaluator{}, randomPopulation(10, 8, rr), rr)
		migrants := donor.Elites(3)
		e.Inject(migrants)
		if vandalise {
			scribble(migrants...)
		}
		for e.Step() {
		}
		return e.Result()
	}
	a, b := run(false), run(true)
	if !slices.Equal(a.Best, b.Best) || a.BestFitness != b.BestFitness {
		t.Errorf("a migrant edited after Inject changed the recipient: %+v vs %+v", a, b)
	}
	if err := b.Best.ValidatePermutation(); err != nil {
		t.Errorf("recipient's best: %v", err)
	}
}
