package main

import (
	"fmt"
	"io"
)

// selftest is the benchmark's short mode: every workload runs once
// untraced and twice traced with one seed and one second, every metric
// BENCHMARK.json declares must be printed with its unit (runWorkload
// refuses a result that is not), every operation must be correct, and the
// per-layer counts must repeat exactly.
func selftest(root string, stdout, stderr io.Writer) int {
	bad := 0
	fail := func(format string, args ...any) {
		bad++
		fmt.Fprintf(stderr, "selftest: "+format+"\n", args...)
	}
	for _, name := range sortedKeys(workloads) {
		rec, err := runWorkload(root, name, 1, 1, false)
		if err != nil {
			fail("%s untraced: %v", name, err)
			continue
		}
		if !rec.Result.Correct {
			fail("%s untraced: %d of %d operations failed: %v", name, rec.Result.Failed, rec.Result.Attempted, rec.Failures)
		}
		var counts [2]map[string]float64
		for i := range counts {
			rec, err := runWorkload(root, name, 1, 1, true)
			if err != nil {
				fail("%s traced: %v", name, err)
				break
			}
			if !rec.Result.Correct {
				fail("%s traced: %d of %d operations failed: %v", name, rec.Result.Failed, rec.Result.Attempted, rec.Failures)
			}
			counts[i] = map[string]float64{}
			for k, m := range rec.Result.Metrics {
				if m.Unit == "count" {
					counts[i][k] = m.Value
				}
			}
		}
		if counts[1] == nil {
			continue
		}
		for k, v := range counts[0] {
			if counts[1][k] != v {
				fail("%s: count %s was %v, then %v", name, k, v, counts[1][k])
			}
		}
		fmt.Fprintf(stdout, "selftest: %s ok (%d counts repeat)\n", name, len(counts[0]))
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "selftest: %d problems\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "selftest: ok")
	return 0
}
