package pnsched

import (
	"pnsched/internal/core"
	"pnsched/internal/sched"
)

// islandName is the canonical registry name of the island-model PN
// scheduler ("pn-island" in scenario files resolves to it
// case-insensitively).
const islandName = "PN-ISLAND"

// PaperOrder is the presentation order of the paper's §4 bar charts:
// the seven comparison schedulers of §4.1.
var PaperOrder = []string{"EF", "LL", "RR", "ZO", "PN", "MM", "MX"}

// The built-in schedulers self-register in the paper's presentation
// order, then PN-ISLAND, then the Maheswaran et al. heuristics of the
// extended comparison — so Names() reads like the paper's tables. Each
// carries its metadata (mode, GA/heuristic, summary); the README's
// scheduler table and the CLI -schedulers listings render from it.
func init() {
	RegisterInfo(Info{Name: "EF", Summary: "earliest-finishing processor, one task at a time (§4.1)"},
		func(Spec, *RNG) (Scheduler, error) { return sched.EF{}, nil })
	RegisterInfo(Info{Name: "LL", Summary: "lightest-loaded processor, one task at a time (§4.1)"},
		func(Spec, *RNG) (Scheduler, error) { return sched.LL{}, nil })
	RegisterInfo(Info{Name: "RR", Summary: "round robin over processors, load-blind (§4.1)"},
		func(Spec, *RNG) (Scheduler, error) { return &sched.RR{}, nil })
	RegisterInfo(Info{Name: "ZO", Batch: true, GA: true, Summary: "zero-one GA: processor-number chromosome, generational (§4.1)"},
		func(s Spec, r *RNG) (Scheduler, error) { return core.NewZO(s.gaConfig(), r), nil })
	RegisterInfo(Info{Name: "PN", Batch: true, GA: true, Summary: "the paper's GA: permutation chromosome, §3.4 budget, §3.7 batching"},
		func(s Spec, r *RNG) (Scheduler, error) { return core.NewPN(s.gaConfig(), r), nil })
	RegisterInfo(Info{Name: "MM", Batch: true, Summary: "Min-min: repeatedly place the task with the smallest earliest finish (§4.1)"},
		func(Spec, *RNG) (Scheduler, error) { return sched.MM{}, nil })
	RegisterInfo(Info{Name: "MX", Batch: true, Summary: "Max-min: like Min-min but largest task first (§4.1)"},
		func(Spec, *RNG) (Scheduler, error) { return sched.MX{}, nil })
	RegisterInfo(Info{Name: islandName, Batch: true, GA: true, Summary: "PN on a migrating island-model ring, one GA per core"},
		func(s Spec, r *RNG) (Scheduler, error) {
			return core.NewPNIsland(s.gaConfig(), s.islandConfig(), r), nil
		})
	RegisterInfo(Info{Name: "MET", Summary: "minimum execution time: fastest processor for the task, load-blind"},
		func(Spec, *RNG) (Scheduler, error) { return sched.MET{}, nil })
	RegisterInfo(Info{Name: "OLB", Summary: "opportunistic load balancing: first idle processor"},
		func(Spec, *RNG) (Scheduler, error) { return sched.OLB{}, nil })
	RegisterInfo(Info{Name: "KPB", Summary: "k-percent best: earliest finish among the k% fastest processors"},
		func(s Spec, _ *RNG) (Scheduler, error) { return sched.KPB{K: s.K}, nil })
	RegisterInfo(Info{Name: "SUF", Batch: true, Summary: "Sufferage: place the task that would suffer most from losing its best processor"},
		func(Spec, *RNG) (Scheduler, error) { return sched.Sufferage{}, nil })
}
