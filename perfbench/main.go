// Command perfbench is the repository's layered benchmark. It runs one named
// workload through the program's public entry points (cli.Main in process,
// and serve.New behind loopback HTTP), checks every operation's output
// against hashes pinned in expected.json, and prints every metric by name
// with its unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 60, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// timers inside an operation. With -trace 1 a separate run calls each
// layer's public functions in the order the program calls them, times each
// call from outside, and reports the per-layer metrics.
//
// Usage, from the root of a checkout (perfbench/run.sh builds and runs it):
//
//	perfbench -root . -workload run-apps -seed 1 -seconds 20 -trace 0
//	perfbench -root . selftest
//	perfbench -root . pin
//	perfbench -root . compare A1.json A2.json -- B1.json B2.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	root := fs.String("root", ".", "root of the checkout (holds BENCHMARK.json)")
	name := fs.String("workload", "", "workload to run: "+workloadNames())
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "nominal measuring time; fixes the operation count")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	out := fs.String("out", "", "also write the full result record (fingerprint, details) to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	abs, err := filepath.Abs(*root)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	switch fs.Arg(0) {
	case "selftest":
		return selftest(abs, stdout, stderr)
	case "pin":
		return pinAll(abs, stdout, stderr)
	case "compare":
		return compare(abs, fs.Args()[1:], stdout, stderr)
	case "":
	default:
		fmt.Fprintf(stderr, "perfbench: unknown command %q\n", fs.Arg(0))
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintf(stderr, "perfbench: -trace is 0 or 1, not %d\n", *traced)
		return 2
	}
	if *seconds < 1 {
		fmt.Fprintf(stderr, "perfbench: -seconds %d, need at least 1\n", *seconds)
		return 2
	}
	rec, err := runWorkload(abs, *name, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if *out != "" {
		data, err := json.MarshalIndent(rec, "", "  ")
		if err == nil {
			err = os.WriteFile(*out, append(data, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: -out: %v\n", err)
			return 1
		}
	}
	printRecord(stdout, rec)
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output: the run's summary.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is a run's full outcome: the result line, the environment
// fingerprint that decides which results may be compared, and details that
// are printed beside the metrics but are not themselves gated.
type record struct {
	Fingerprint fingerprint       `json:"fingerprint"`
	Details     map[string]metric `json:"details"`
	Notes       map[string]string `json:"notes,omitempty"`
	Failures    []string          `json:"failures,omitempty"`
	Result      result            `json:"result"`
}

func printRecord(w io.Writer, rec *record) {
	fp, _ := json.Marshal(rec.Fingerprint)
	fmt.Fprintf(w, "fingerprint %s\n", fp)
	for _, f := range rec.Failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	for _, k := range sortedKeys(rec.Notes) {
		fmt.Fprintf(w, "note %s: %s\n", k, rec.Notes[k])
	}
	for _, k := range sortedKeys(rec.Details) {
		m := rec.Details[k]
		fmt.Fprintf(w, "detail %-36s %14.6g %s\n", k, m.Value, m.Unit)
	}
	for _, k := range sortedKeys(rec.Result.Metrics) {
		m := rec.Result.Metrics[k]
		fmt.Fprintf(w, "metric %-36s %14.6g %s\n", k, m.Value, m.Unit)
	}
	line, _ := json.Marshal(rec.Result)
	fmt.Fprintf(w, "%s\n", line)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// runWorkload sets the workload up setupRepeats times (reporting the
// median), then runs its untraced or traced measurement.
func runWorkload(root, name string, seed uint64, seconds int, traced bool) (*record, error) {
	w, ok := workloads[name]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want %s)", name, workloadNames())
	}
	exp, err := loadExpected(root)
	if err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return nil, fmt.Errorf("work directory: %w", err)
	}
	defer os.RemoveAll(tmp)
	b := &bench{seed: seed, seconds: seconds, tmp: tmp, expect: exp,
		details: map[string]metric{}, notes: map[string]string{}}
	// DIOGENES_OBS_STATE: every CLI run persists its observer state there.
	if err := os.Setenv("DIOGENES_OBS_STATE", filepath.Join(tmp, "obs-state.json")); err != nil {
		return nil, err
	}

	var setups []float64
	var st state
	for i := 0; i < setupRepeats; i++ {
		if st != nil {
			st.close()
		}
		runtime.GC()
		t0 := time.Now()
		st, err = w.setup(b, i)
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			return nil, fmt.Errorf("%s set-up: %w", name, err)
		}
	}
	defer st.close()
	runtime.GC()

	rec := &record{Fingerprint: newFingerprint(root, name, seed, seconds, traced)}
	if traced {
		layers, err := st.traced(b)
		if err != nil {
			return nil, fmt.Errorf("%s traced run: %w", name, err)
		}
		rec.Result.Metrics = layers
	} else {
		e2e, err := st.measure(b)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		e2e["setup_s"] = metric{median(setups), "s"}
		rec.Result.Metrics = e2e
	}
	b.details["setup_runs"] = metric{float64(len(setups)), "count"}
	for i, s := range setups {
		b.details["setup_"+itoa(i)+"_s"] = metric{s, "s"}
	}
	b.details["failed_frac"] = metric{b.failedFrac(), "frac"}
	rec.Details, rec.Notes, rec.Failures = b.details, b.notes, b.failures
	rec.Result.Attempted, rec.Result.Failed = b.attempted, b.failed
	rec.Result.Correct = b.failed == 0 && b.attempted > 0
	if err := checkMetricSet(root, rec.Result.Metrics, traced); err != nil {
		return nil, err
	}
	return rec, nil
}

// setupRepeats is how many times each run sets its workload up; setup_s is
// the median.
const setupRepeats = 3

// workload is one named benchmark input set; BENCHMARK.json and
// predictions.json say why each exists.
type workload struct {
	setup func(b *bench, repeat int) (state, error)
}

// state is a set-up workload, ready to measure.
type state interface {
	measure(b *bench) (map[string]metric, error)
	traced(b *bench) (map[string]metric, error)
	close()
}

var workloads = map[string]workload{
	"run-apps":       {setup: setupRunApps},
	"fleet-amg":      {setup: setupFleet},
	"analyze-traces": {setup: setupAnalyze},
	"serve-mix":      {setup: setupServe},
}

func workloadNames() string {
	s := ""
	for i, k := range sortedKeys(workloads) {
		if i > 0 {
			s += ", "
		}
		s += k
	}
	return s
}

// bench is one run's context: its seed, work directory, pinned
// expectations and the correctness tally every operation feeds.
type bench struct {
	seed    uint64
	seconds int
	tmp     string
	expect  *expected

	attempted int
	failed    int
	failures  []string
	details   map[string]metric
	notes     map[string]string
}

// check counts one attempted operation and compares its output with the
// pinned hash for key. An error, a missing pin or a different hash counts
// as a failure.
func (b *bench) check(key string, out []byte, err error) bool {
	return b.checkAs(key, key, out, err)
}

// checkAs is check with a label for the failure list that differs from
// the pinned key.
func (b *bench) checkAs(label, key string, out []byte, err error) bool {
	b.attempted++
	if err == nil {
		err = b.expect.verify(key, out)
	}
	if err != nil {
		b.failed++
		if len(b.failures) < 20 {
			b.failures = append(b.failures, fmt.Sprintf("%s: %v", label, err))
		}
		return false
	}
	return true
}

// checkValue counts one attempted check of computed values (not an
// output hash); got describes what was found.
func (b *bench) checkValue(key, got string, err error) {
	b.attempted++
	if err != nil {
		b.failed++
		b.failures = append(b.failures, fmt.Sprintf("%s: %v", key, err))
	}
	if got != "" {
		b.notes[key] = got
	}
}

func (b *bench) failedFrac() float64 {
	if b.attempted == 0 {
		return 0
	}
	return float64(b.failed) / float64(b.attempted)
}

// opCount is the fixed number of operations a closed-loop run makes:
// seconds × the workload's nominal rate at the commit that defined the
// benchmark, rounded up to whole cycles of the operation list. A fixed
// count keeps every percentile on the same operation mode from run to run.
func opCount(seconds int, perSecond float64, cycle int) int {
	n := int(float64(seconds)*perSecond + 0.5)
	if n < cycle {
		n = cycle
	}
	return (n + cycle - 1) / cycle * cycle
}

// heapAllocBytes reads the cumulative heap allocation counter.
func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// fingerprint identifies the environment and configuration a result was
// measured under. Results whose fingerprints differ (apart from the
// commit and source hash, which are what an A/B compares) are not
// compared.
type fingerprint struct {
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NProc      int    `json:"nproc"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
	Source     string `json:"source_sha256"`
	Config     string `json:"config_sha256"`
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
}

func newFingerprint(root, name string, seed uint64, seconds int, traced bool) fingerprint {
	commit := "none"
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return fingerprint{
		Go:         runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc:      runtime.NumCPU(),
		CPU:        cpuModel(),
		Commit:     commit,
		Source:     sourceHash(root),
		Config:     configHash(root),
		Workload:   name,
		Seed:       seed,
		Seconds:    seconds,
		Traced:     traced,
	}
}

func itoa(n int) string { return strconv.Itoa(n) }
