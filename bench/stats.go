package main

import "pnsched/internal/stats"

func median(xs []float64) float64 { return stats.Quantile(xs, 0.5) }

// ratio is a/b, and 0 when b is 0 — for per-task and per-batch shares
// on workloads that bypass the layer being counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
