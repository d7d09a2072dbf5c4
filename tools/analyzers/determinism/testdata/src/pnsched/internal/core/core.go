// Package core is a determinism fixture: every banned construct with
// its sanctioned counterpart alongside.
package core

import (
	"fmt"
	"math/rand"
	randv2 "math/rand/v2"
	"sort"
	"strings"
	"time"
)

// Clock is the injected seam a deterministic component must use.
type Clock func() time.Time

func wallClock(c Clock) time.Duration {
	start := time.Now()   // want `call to time\.Now in deterministic package`
	_ = time.Since(start) // want `call to time\.Since in deterministic package`
	_ = time.Until(start) // want `call to time\.Until in deterministic package`
	_ = c().Sub(start)    // injected clock: fine
	_ = time.Duration(3) * time.Second
	return 0
}

func globalRand(r *rand.Rand) int {
	_ = rand.Intn(10)                      // want `package-level rand\.Intn draws from the process-global source`
	_ = rand.Float64()                     // want `package-level rand\.Float64 draws from the process-global source`
	rand.Shuffle(3, func(i, j int) {})     // want `package-level rand\.Shuffle draws from the process-global source`
	_ = randv2.IntN(10)                    // want `package-level rand\.IntN draws from the process-global source`
	seeded := rand.New(rand.NewSource(42)) // constructors are the seam: fine
	_ = seeded.Intn(10)                    // method on the injected generator: fine
	return r.Intn(10)                      // fine
}

func orderedOutput(m map[string]int) []string {
	// The sanctioned idiom — collect, sort, iterate — stays quiet.
	var keys []string
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// sort.Slice and sort.SliceStable sort their argument too.
	var byLen []string
	for k := range m {
		byLen = append(byLen, k)
	}
	sort.Slice(byLen, func(i, j int) bool { return len(byLen[i]) < len(byLen[j]) })
	var stable []string
	for k := range m {
		stable = append(stable, k)
	}
	sort.SliceStable(stable, func(i, j int) bool { return stable[i] < stable[j] })

	// The same collection loop without the sort is the bug.
	var unsorted []string
	for k := range m { // want `range over map m in deterministic package: the body appends to unsorted which is never sorted`
		unsorted = append(unsorted, k)
	}

	var b strings.Builder
	for k := range m { // want `range over map m in deterministic package: the body writes output`
		b.WriteString(k)
	}

	ch := make(chan string, len(m))
	for k := range m { // want `range over map m in deterministic package: the body sends on a channel`
		ch <- k
	}

	for k, v := range m { // want `range over map m in deterministic package: the body writes output via fmt\.Printf`
		fmt.Printf("%s=%d\n", k, v)
	}

	// Order-insensitive uses stay quiet.
	sum := 0
	for _, v := range m {
		sum += v
	}
	set := make(map[string]bool, len(m))
	for k := range m {
		set[k] = true
	}
	for k := range m { // loop-local accumulation then discarded: quiet
		local := []string{k}
		_ = local
	}
	_ = rand.Intn(1) //pnanalyze:ok determinism — a reviewed, waived draw
	return append(append(append(keys, byLen...), stable...), unsorted...)
}
