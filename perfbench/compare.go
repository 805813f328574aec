package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// compare reads two sides of result records (written with -out), split by
// "--", and reports each metric's median, quartile spread and change
// against the bound BENCHMARK.json fixes. It refuses mixed cohorts: within
// a side every fingerprint field but the seed must agree, and across sides
// every field but the commit and source hash.
func compare(root string, args []string, stdout, stderr io.Writer) int {
	var sides [2][]*record
	side := 0
	for _, a := range args {
		if a == "--" {
			side++
			continue
		}
		if side > 1 {
			fmt.Fprintln(stderr, "perfbench: compare: more than one --")
			return 2
		}
		data, err := os.ReadFile(a)
		var rec record
		if err == nil {
			err = json.Unmarshal(data, &rec)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: compare: %s: %v\n", a, err)
			return 2
		}
		sides[side] = append(sides[side], &rec)
	}
	if len(sides[0]) == 0 || len(sides[1]) == 0 {
		fmt.Fprintln(stderr, "perfbench: compare: want records A... -- B...")
		return 2
	}
	cohort := func(f fingerprint, withCode bool) fingerprint {
		f.Seed = 0
		if !withCode {
			f.Commit, f.Source = "", ""
		}
		return f
	}
	for s, recs := range sides {
		for _, r := range recs[1:] {
			if cohort(r.Fingerprint, true) != cohort(recs[0].Fingerprint, true) {
				fmt.Fprintf(stderr, "perfbench: compare: side %c mixes cohorts: %+v vs %+v\n", 'A'+s, r.Fingerprint, recs[0].Fingerprint)
				return 1
			}
		}
	}
	if cohort(sides[0][0].Fingerprint, false) != cohort(sides[1][0].Fingerprint, false) {
		fmt.Fprintf(stderr, "perfbench: compare: sides were measured under different environments: %+v vs %+v\n",
			sides[0][0].Fingerprint, sides[1][0].Fingerprint)
		return 1
	}
	bounds, better := map[string]float64{}, map[string]string{}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: compare: %v\n", err)
		return 1
	}
	var spec struct {
		EndToEnd []struct {
			Name, Better string
			Bound        float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		fmt.Fprintf(stderr, "perfbench: compare: BENCHMARK.json: %v\n", err)
		return 1
	}
	for _, m := range spec.EndToEnd {
		bounds[m.Name], better[m.Name] = m.Bound, m.Better
	}
	fmt.Fprintf(stdout, "%-34s %12s %8s %12s %8s %9s %s\n", "metric", "A median", "A iqr", "B median", "B iqr", "change", "verdict")
	for _, name := range sortedKeys(sides[0][0].Result.Metrics) {
		var xs [2][]float64
		for s := range sides {
			for _, r := range sides[s] {
				xs[s] = append(xs[s], r.Result.Metrics[name].Value)
			}
		}
		ma, mb := median(xs[0]), median(xs[1])
		change := 0.0
		if ma != 0 {
			change = (mb - ma) / ma
		}
		verdict := ""
		if bound, ok := bounds[name]; ok {
			worse := change
			if better[name] == "higher" {
				worse = -change
			}
			verdict = "within bound"
			if worse > bound {
				verdict = fmt.Sprintf("WORSE than bound %.2f", bound)
			}
			// A spread wider than the bound on either side leaves the
			// change unresolved, unless every run on one side beats
			// every run on the other.
			if (spread(xs[0]) > bound || spread(xs[1]) > bound) && !separated(xs[0], xs[1]) {
				verdict = "unresolved: spread exceeds bound"
			}
		}
		fmt.Fprintf(stdout, "%-34s %12.6g %8.3f %12.6g %8.3f %+8.1f%% %s\n", name, ma, spread(xs[0]), mb, spread(xs[1]), 100*change, verdict)
	}
	return 0
}

// separated reports whether every value of one side lies beyond every
// value of the other.
func separated(a, b []float64) bool {
	sa, sb := sorted(a), sorted(b)
	return sa[len(sa)-1] < sb[0] || sb[len(sb)-1] < sa[0]
}
