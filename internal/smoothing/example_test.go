package smoothing_test

import (
	"fmt"

	"pnsched/internal/smoothing"
)

// The §3.6 recurrence: the first observation primes the estimator, and
// subsequent values pull it by a factor ν toward the observation.
func ExampleSmoother() {
	s := smoothing.New(0.5)
	for _, cost := range []float64{10, 20, 10, 30} {
		fmt.Printf("%.2f\n", s.Observe(cost))
	}
	// Output:
	// 10.00
	// 15.00
	// 12.50
	// 21.25
}
