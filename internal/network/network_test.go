package network

import (
	"math"
	"testing"

	"pnsched/internal/rng"
	"pnsched/internal/stats"
)

func TestNewValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { New(0, Config{MeanCost: 1}, rng.New(1)) },
		func() { New(3, Config{MeanCost: -1}, rng.New(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid network config did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestLinkMeansSpreadAroundGlobal(t *testing.T) {
	n := New(200, Config{MeanCost: 10, LinkSpread: 0.3}, rng.New(42))
	means := make([]float64, n.M())
	for j := range means {
		means[j] = float64(n.links[j].mean)
	}
	m := stats.Mean(means)
	if math.Abs(m-10) > 1 {
		t.Errorf("mean of link means = %v, want ~10", m)
	}
	if sd := math.Sqrt(stats.Variance(means)); sd < 1.5 || sd > 4.5 {
		t.Errorf("spread of link means = %v, want ~3", sd)
	}
	for j, v := range means {
		if v < 0 {
			t.Errorf("link %d negative mean %v", j, v)
		}
	}
}

func TestZeroSpreadGivesIdenticalLinks(t *testing.T) {
	n := New(10, Config{MeanCost: 5}, rng.New(1))
	for j := 0; j < n.M(); j++ {
		if n.links[j].mean != 5 {
			t.Errorf("link %d mean = %v, want exactly 5", j, n.links[j].mean)
		}
	}
}

func TestTransferCostsCenterOnLinkMean(t *testing.T) {
	n := New(1, Config{MeanCost: 10, Jitter: 0.2}, rng.New(7))
	var costs []float64
	for i := 0; i < 20000; i++ {
		costs = append(costs, float64(n.Transfer(0)))
	}
	if m := stats.Mean(costs); math.Abs(m-10) > 0.5 {
		t.Errorf("mean transfer cost = %v, want ~10", m)
	}
	for _, c := range costs {
		if c < 0 {
			t.Fatalf("negative transfer cost %v", c)
		}
	}
}

func TestZeroJitterIsDeterministicCost(t *testing.T) {
	n := New(2, Config{MeanCost: 3}, rng.New(9))
	for i := 0; i < 100; i++ {
		if got := n.Transfer(1); got != 3 {
			t.Fatalf("transfer cost = %v, want exactly 3", got)
		}
	}
}

func TestEstimatorConvergesToLinkMean(t *testing.T) {
	n := New(1, Config{MeanCost: 10, Jitter: 0.1}, rng.New(11))
	if got := n.EstimatedCost(0); got != 0 {
		t.Errorf("estimate before observations = %v, want 0", got)
	}
	for i := 0; i < 2000; i++ {
		n.Transfer(0)
	}
	est := float64(n.EstimatedCost(0))
	if math.Abs(est-10) > 1.5 {
		t.Errorf("estimate = %v, want ~10", est)
	}
}

func TestEstimatorTracksDrift(t *testing.T) {
	// With drift enabled the true mean wanders; the estimator must stay
	// within a reasonable band of it.
	n := New(1, Config{MeanCost: 10, Jitter: 0.05, DriftSigma: 0.01}, rng.New(13))
	for i := 0; i < 5000; i++ {
		n.Transfer(0)
	}
	est := float64(n.EstimatedCost(0))
	truth := float64(n.links[0].mean)
	if truth <= 0 {
		t.Fatalf("true mean collapsed to %v", truth)
	}
	if est < truth*0.5 || est > truth*2 {
		t.Errorf("estimate %v far from drifted truth %v", est, truth)
	}
}

func TestDriftActuallyMoves(t *testing.T) {
	n := New(1, Config{MeanCost: 10, DriftSigma: 0.05}, rng.New(17))
	before := n.links[0].mean
	for i := 0; i < 500; i++ {
		n.Transfer(0)
	}
	if n.links[0].mean == before {
		t.Error("drift enabled but true mean never moved")
	}
}

func TestNoDriftKeepsMeanFixed(t *testing.T) {
	n := New(1, Config{MeanCost: 10, Jitter: 0.5}, rng.New(19))
	before := n.links[0].mean
	for i := 0; i < 500; i++ {
		n.Transfer(0)
	}
	if n.links[0].mean != before {
		t.Error("mean moved without drift")
	}
}

func TestZeroCost(t *testing.T) {
	n := New(5, Config{}, rng.New(0))
	if n.M() != 5 {
		t.Fatalf("M = %d", n.M())
	}
	for j := 0; j < 5; j++ {
		if got := n.Transfer(j); got != 0 {
			t.Errorf("zero-cost network charged %v", got)
		}
	}
	if got := n.EstimatedCost(0); got != 0 {
		t.Errorf("estimate after free transfer = %v, want 0", got)
	}
}

func TestDeterministicAcrossConstruction(t *testing.T) {
	mk := func() []float64 {
		n := New(3, Config{MeanCost: 10, LinkSpread: 0.2, Jitter: 0.3}, rng.New(21))
		var out []float64
		for i := 0; i < 50; i++ {
			out = append(out, float64(n.Transfer(i%3)))
		}
		return out
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("network sampling not deterministic at %d", i)
		}
	}
}

func TestEstimatedCostPerLinkIndependent(t *testing.T) {
	n := New(2, Config{MeanCost: 10, LinkSpread: 0.5}, rng.New(23))
	cost := n.Transfer(0)
	// The first observation primes link 0's estimate; link 1 stays
	// unobserved and must not see it.
	if got := n.EstimatedCost(0); got != cost || cost == 0 {
		t.Errorf("link 0 estimate = %v after one transfer costing %v", got, cost)
	}
	if got := n.EstimatedCost(1); got != 0 {
		t.Errorf("link 1 estimate = %v, want 0 (unobserved)", got)
	}
}
