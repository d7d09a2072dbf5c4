// Package network models the communication links between the scheduler
// and each client processor. Per the paper's setup (§4.3): "Each
// communications link has its own randomly generated mean cost, which is
// normally distributed", and available network resources vary over time
// (§3). Every task transfer samples a cost around the link's current
// mean; the scheduler never sees the true means, only the history of
// observed costs, which it summarises with the §3.6 smoothing function
// to produce the Γc(y,j) estimates used in the fitness function.
package network

import (
	"fmt"
	"math"

	"pnsched/internal/rng"
	"pnsched/internal/smoothing"
	"pnsched/internal/units"
)

// DefaultNu is the smoothing factor of the communication-cost
// estimators. Moderate smoothing tracks drifting links while damping
// per-transfer noise.
const DefaultNu = 0.2

// Config describes a network between the scheduler and M clients.
type Config struct {
	// MeanCost is the global mean communication cost per task transfer.
	// Each link's own mean is drawn normally around this value.
	MeanCost units.Seconds
	// LinkSpread is the standard deviation of per-link means as a
	// fraction of MeanCost. The paper gives each link "its own randomly
	// generated mean cost, which is normally distributed".
	LinkSpread float64
	// Jitter is the standard deviation of individual transfer costs as
	// a fraction of the link's current mean.
	Jitter float64
	// DriftSigma, when positive, makes each link's mean follow a
	// lognormal random walk per transfer — the "available network
	// resources ... can vary over time" regime. Zero disables drift.
	DriftSigma float64
}

// link is the hidden true state of one scheduler↔client connection.
type link struct {
	mean units.Seconds // current true mean cost
}

// Network holds the true link states, the sampling stream, and the
// scheduler-visible smoothed estimators.
type Network struct {
	cfg   Config
	links []link
	r     *rng.RNG
	est   []*smoothing.Smoother
}

// New builds a network with m links. Link means are drawn from
// Normal(cfg.MeanCost, cfg.LinkSpread·cfg.MeanCost), truncated at zero.
// It panics if m <= 0 or the mean cost is negative — configuration
// errors caught at construction.
func New(m int, cfg Config, r *rng.RNG) *Network {
	if m <= 0 {
		panic("network: need at least one link")
	}
	if cfg.MeanCost < 0 {
		panic(fmt.Sprintf("network: negative mean cost %v", cfg.MeanCost))
	}
	n := &Network{
		cfg:   cfg,
		links: make([]link, m),
		r:     r,
		est:   make([]*smoothing.Smoother, m),
	}
	sd := cfg.LinkSpread * float64(cfg.MeanCost)
	for j := range n.links {
		mean := float64(cfg.MeanCost)
		if sd > 0 {
			mean = r.TruncNormal(mean, sd, 0, mean+8*sd)
		}
		n.links[j].mean = units.Seconds(mean)
		n.est[j] = smoothing.New(DefaultNu)
	}
	return n
}

// M returns the number of links.
func (n *Network) M() int { return len(n.links) }

// Transfer simulates sending one task (or result) over link j and
// returns the incurred cost. The cost is observed into the link's
// smoothed estimator, exactly as the real scheduler would time an RPC.
func (n *Network) Transfer(j int) units.Seconds {
	l := &n.links[j]
	cost := float64(l.mean)
	if n.cfg.Jitter > 0 && cost > 0 {
		cost = n.r.TruncNormal(cost, n.cfg.Jitter*cost, 0, cost*8)
	}
	if n.cfg.DriftSigma > 0 {
		l.mean = units.Seconds(float64(l.mean) * math.Exp(n.cfg.DriftSigma*n.r.NormFloat64()))
	}
	n.est[j].Observe(cost)
	return units.Seconds(cost)
}

// EstimatedCost returns the scheduler-visible smoothed estimate Γc for
// link j — the paper's scheduler "estimates the communication costs
// between each client and server using historical information". Before
// any transfer has been observed there is no history and it returns 0.
func (n *Network) EstimatedCost(j int) units.Seconds {
	return units.Seconds(n.est[j].ValueOr(0))
}
