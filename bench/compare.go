package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"

	"pnsched/internal/stats"
)

func readResults(path string) ([]result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []result
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r result
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// compareFiles prints, for every workload × metric the two sets share,
// each set's median and quartiles, and flags a median that is worse in
// the second set by more than the metric's bound. It refuses sets
// measured on different machines or toolchains. ok is false when a gap
// was flagged or a run in either set failed its checks.
func compareFiles(w io.Writer, pathA, pathB string) (ok bool, err error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	if len(a) == 0 || len(b) == 0 {
		return false, fmt.Errorf("nothing to compare: %d and %d results", len(a), len(b))
	}
	for _, r := range append(append([]result(nil), a...), b...) {
		if !r.Stamp.sameMachine(a[0].Stamp) {
			return false, fmt.Errorf("stamps differ: %+v vs %+v — not the same machine and toolchain", a[0].Stamp, r.Stamp)
		}
	}

	ok = true
	type key struct{ workload, metric string }
	collect := func(rs []result) (map[key][]float64, map[key]string) {
		vals, units := map[key][]float64{}, map[key]string{}
		for _, r := range rs {
			if !r.Correct {
				ok = false
				fmt.Fprintf(w, "FAILED RUN  %s seed %d: %d of %d ops failed %v\n", r.Workload, r.Seed, r.Failed, r.Attempted, r.CheckErrors)
			}
			for name, m := range r.Metrics {
				k := key{r.Workload, name}
				vals[k] = append(vals[k], m.Value)
				units[k] = m.Unit
			}
		}
		return vals, units
	}
	va, units := collect(a)
	vb, _ := collect(b)
	var keys []key
	for k := range va {
		if _, both := vb[k]; both {
			keys = append(keys, k)
		}
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})

	fmt.Fprintf(w, "%-13s %-34s %-6s %38s %38s %8s\n", "workload", "metric", "unit", "A median [q1, q3] (n)", "B median [q1, q3] (n)", "B vs A")
	for _, k := range keys {
		xa, xb := va[k], vb[k]
		ma, mb := median(xa), median(xb)
		change := ratio(mb-ma, ma)
		flag := ""
		if m, gated := gatedMetric(k.metric); gated {
			worse := change
			if m.higher {
				worse = -change
			}
			if worse > m.bound {
				flag = fmt.Sprintf("  WORSE by more than %.0f%%", m.bound*100)
				ok = false
			}
		}
		fmt.Fprintf(w, "%-13s %-34s %-6s %38s %38s %+7.1f%%%s\n", k.workload, k.metric, units[k], summary(xa), summary(xb), change*100, flag)
	}
	return ok, nil
}

func summary(xs []float64) string {
	return fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", median(xs), stats.Quantile(xs, 0.25), stats.Quantile(xs, 0.75), len(xs))
}
