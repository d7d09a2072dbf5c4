// Command pnworkload generates synthetic task sets (uniform, normal or
// Poisson sizes, per the paper's §4) and writes them as JSON for use
// with pnsim -workload or the distributed runtime.
//
// Usage:
//
//	pnworkload -n 1000 -dist normal -mean 1000 -variance 9e5 > tasks.json
//	pnworkload -n 500 -dist uniform -lo 10 -hi 10000 -out tasks.json
//	pnworkload -n 200 -dist poisson -mean 100 -arrival-gap 0.5
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pnsched/internal/rng"
	"pnsched/internal/units"
	"pnsched/internal/workload"
)

func main() {
	var (
		n        = flag.Int("n", 1000, "number of tasks")
		dist     = flag.String("dist", "uniform", "distribution: normal, uniform, poisson, constant")
		mean     = flag.Float64("mean", 1000, "mean size (normal/poisson/constant), MFLOPs")
		variance = flag.Float64("variance", 9e5, "size variance (normal)")
		lo       = flag.Float64("lo", 10, "lower size bound (uniform)")
		hi       = flag.Float64("hi", 1000, "upper size bound (uniform)")
		gap      = flag.Float64("arrival-gap", 0, "mean inter-arrival gap in seconds (0: all at t=0)")
		seed     = flag.Uint64("seed", 1, "random seed")
		out      = flag.String("out", "", "output file (default stdout)")
	)
	flag.Parse()

	d, err := workload.DistributionByName(*dist, *mean, *variance, *lo, *hi)
	if err != nil {
		fatal(err)
	}

	spec := workload.Spec{N: *n, Sizes: d}
	if *gap > 0 {
		spec.Arrival = workload.PoissonArrivals{MeanGap: units.Seconds(*gap)}
	}
	tasks := workload.Generate(spec, rng.New(*seed))

	var w io.Writer = os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := workload.WriteJSON(w, tasks, d.Name()); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pnworkload:", err)
	os.Exit(1)
}
