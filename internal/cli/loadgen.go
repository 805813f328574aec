package cli

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"
)

// Loadgen drives one or more serve nodes with a mixed interactive/batch
// workload and reports a per-cohort latency and throughput matrix. The
// methodology follows the repo's benchmarking policy: runs execute in
// fixed-duration cohorts, each cohort passes a validity gate before it
// may be aggregated, and final (gated) claims require at least
// minValidCohorts valid cohorts. Backpressure (HTTP 429) is a counted
// outcome, not an error — a bounded queue turning work away is the serve
// layer working as designed; transport failures and 5xx responses are
// what invalidate a cohort. A cohort whose every submission got 429 is
// not valid either (it measured nothing but rejection) and is reported
// as saturated, apart from the failed ones. Before each cohort a
// drain barrier waits until every target reports an empty queue on
// /healthz, so no cohort inherits an earlier cohort's backlog.
func Loadgen(w io.Writer, args []string) error {
	fs := newFlagSet("loadgen")
	targets := fs.String("targets", "http://127.0.0.1:8377", "comma-separated serve base URLs (or host:port)")
	clients := fs.Int("clients", 4, "concurrent client loops")
	cohorts := fs.Int("cohorts", minValidCohorts, "fixed-duration measurement cohorts")
	duration := fs.Duration("duration", 2*time.Second, "per-cohort wall time")
	mix := fs.Float64("mix", 0.8, "interactive fraction of submissions (rest are batch fleet jobs)")
	scale := fs.Float64("scale", 0.05, "workload scale submitted with each job")
	seed := fs.Int64("seed", 1, "workload-mix random seed")
	jsonPath := fs.String("json", "", "export the full matrix as JSON to file")
	gate := fs.Bool("gate", false, "enforce the validity gates: nonzero exit unless >= 5 cohorts are valid")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("loadgen: unexpected argument %q", fs.Arg(0))
	}
	if *clients < 1 {
		return fmt.Errorf("loadgen: need at least 1 client, have %d", *clients)
	}
	if *cohorts < 1 {
		return fmt.Errorf("loadgen: need at least 1 cohort, have %d", *cohorts)
	}
	if *mix < 0 || *mix > 1 {
		return fmt.Errorf("loadgen: -mix %v must be in [0,1]", *mix)
	}
	var urls []string
	for _, tgt := range strings.Split(*targets, ",") {
		tgt = strings.TrimSpace(tgt)
		if tgt == "" {
			continue
		}
		if !strings.HasPrefix(tgt, "http://") && !strings.HasPrefix(tgt, "https://") {
			tgt = "http://" + tgt
		}
		urls = append(urls, strings.TrimRight(tgt, "/"))
	}
	if len(urls) == 0 {
		return fmt.Errorf("loadgen: -targets is empty")
	}

	report := runLoad(urls, *clients, *cohorts, *duration, *mix, *scale, *seed)
	writeLoadReport(w, report)
	if *jsonPath != "" {
		if err := writeFile(*jsonPath, func(f io.Writer) error {
			enc := json.NewEncoder(f)
			enc.SetIndent("", "  ")
			return enc.Encode(report)
		}); err != nil {
			return fmt.Errorf("loadgen: -json: %w", err)
		}
		fmt.Fprintf(w, "\nload matrix exported to %s\n", *jsonPath)
	}
	if *gate {
		if err := report.gateErr(); err != nil {
			return &ExitCodeError{Err: err, Code: 3}
		}
		fmt.Fprintf(w, "\nvalidity gates passed: %d/%d cohorts valid (need >= %d)\n",
			report.ValidCohorts, len(report.Cohorts), minValidCohorts)
	}
	return nil
}

// minValidCohorts is the minimum sample size behind any aggregated
// claim the gated loadgen makes (the N>=5 rule).
const minValidCohorts = 5

// loadApps are the interactive submission targets, drawn per request.
var loadApps = []string{"rodinia_gaussian", "amg", "cuibm", "cumf_als"}

// loadOutcome classifies one submission.
type loadOutcome int

const (
	outcomeAccepted    loadOutcome = iota // 2xx: queued or store-served
	outcomeBackpressed                    // 429: the bounded queue said later
	outcomeInvalid                        // transport error, 5xx, or anything else
)

// classStats aggregates one admission class within one cohort.
type classStats struct {
	Accepted    int     `json:"accepted"`
	Backpressed int     `json:"backpressed"`
	Invalid     int     `json:"invalid"`
	P50Micros   int64   `json:"p50Micros"`
	P90Micros   int64   `json:"p90Micros"`
	P99Micros   int64   `json:"p99Micros"`
	latencies   []int64 // accepted-submission latencies, µs
}

// CohortReport is one fixed-duration measurement window.
type CohortReport struct {
	Index       int        `json:"index"`
	Seconds     float64    `json:"seconds"`
	Interactive classStats `json:"interactive"`
	Batch       classStats `json:"batch"`
	// Throughput is accepted submissions per second across both classes.
	Throughput float64 `json:"throughput"`
	// Valid reports the cohort's validity gate: no invalid outcomes and
	// at least one accepted submission. Invalid cohorts are excluded
	// from every aggregate. Reason says why a cohort is not valid;
	// reasonSaturated marks one whose every submission got 429.
	Valid  bool   `json:"valid"`
	Reason string `json:"reason,omitempty"`
}

// LoadReport is the full matrix.
type LoadReport struct {
	Targets      []string       `json:"targets"`
	Clients      int            `json:"clients"`
	Mix          float64        `json:"interactiveMix"`
	Cohorts      []CohortReport `json:"cohorts"`
	ValidCohorts int            `json:"validCohorts"`
	// SaturatedCohorts counts the not-valid cohorts that saw only 429s;
	// the rest of the not-valid ones failed (transport error, 5xx, or an
	// undrained queue).
	SaturatedCohorts int `json:"saturatedCohorts"`
	// Aggregates over valid cohorts only; zero-valued when none are.
	AggThroughput float64 `json:"aggThroughput"`
	AggP50Micros  int64   `json:"aggP50Micros"`
	AggP99Micros  int64   `json:"aggP99Micros"`
}

// gateErr renders the validity-gate verdict as an error, nil when the
// report is publishable.
func (r *LoadReport) gateErr() error {
	if r.ValidCohorts < minValidCohorts {
		return fmt.Errorf("loadgen: validity gate failed: %d/%d cohorts valid (%d saturated), need >= %d (invalid cohorts must be rerun, not aggregated)",
			r.ValidCohorts, len(r.Cohorts), r.SaturatedCohorts, minValidCohorts)
	}
	return nil
}

// runLoad executes the cohort matrix against the target group.
func runLoad(urls []string, clients, cohorts int, dur time.Duration, mix, scale float64, seed int64) *LoadReport {
	client := &http.Client{Timeout: 30 * time.Second}
	report := &LoadReport{Targets: urls, Clients: clients, Mix: mix}
	for c := 0; c < cohorts; c++ {
		if err := drainQueues(client, urls, drainTimeout); err != nil {
			report.Cohorts = append(report.Cohorts, CohortReport{Index: c, Seconds: dur.Seconds(), Reason: err.Error()})
			continue
		}
		report.Cohorts = append(report.Cohorts, runCohort(client, urls, clients, c, dur, mix, scale, seed))
	}
	var lat []int64
	var thr float64
	for i := range report.Cohorts {
		co := &report.Cohorts[i]
		if co.Reason == reasonSaturated {
			report.SaturatedCohorts++
		}
		if !co.Valid {
			continue
		}
		report.ValidCohorts++
		thr += co.Throughput
		lat = append(lat, co.Interactive.latencies...)
		lat = append(lat, co.Batch.latencies...)
	}
	if report.ValidCohorts > 0 {
		report.AggThroughput = thr / float64(report.ValidCohorts)
		report.AggP50Micros = percentile(lat, 50)
		report.AggP99Micros = percentile(lat, 99)
	}
	return report
}

// drainTimeout bounds the wait for the targets' queues to empty before a
// cohort; a cohort whose targets do not drain in time is not run and
// counts as invalid.
const drainTimeout = 30 * time.Second

// drainPoll is the /healthz polling interval of the drain barrier.
const drainPoll = 5 * time.Millisecond

// drainQueues is the barrier between cohorts: it polls each target's
// /healthz until the reported queue depth is 0, so every cohort starts
// from the same empty-queue state. It fails on a transport error, a
// non-200 probe, or when timeout passes first.
func drainQueues(client *http.Client, urls []string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for _, u := range urls {
		for {
			depth, err := queueDepth(client, u)
			if err != nil {
				return fmt.Errorf("drain: %v", err)
			}
			if depth == 0 {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("drain: %s still has %d queued jobs after %v", u, depth, timeout)
			}
			time.Sleep(drainPoll)
		}
	}
	return nil
}

// queueDepth reads the queueDepth a serve node reports on /healthz.
func queueDepth(client *http.Client, target string) (int, error) {
	resp, err := client.Get(target + "/healthz")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s/healthz: %s", target, resp.Status)
	}
	var h struct {
		QueueDepth int `json:"queueDepth"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		return 0, fmt.Errorf("%s/healthz: %v", target, err)
	}
	return h.QueueDepth, nil
}

// runCohort runs one fixed-duration window with the full client set.
func runCohort(client *http.Client, urls []string, clients, index int, dur time.Duration, mix, scale float64, seed int64) CohortReport {
	co := CohortReport{Index: index, Seconds: dur.Seconds()}
	var mu sync.Mutex
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			// Per-client deterministic stream: same seed, same mix.
			rng := rand.New(rand.NewSource(seed + int64(index)*1000 + int64(cl)))
			for i := 0; time.Now().Before(deadline); i++ {
				target := urls[(cl+i)%len(urls)]
				interactive := rng.Float64() < mix
				var body string
				if interactive {
					app := loadApps[rng.Intn(len(loadApps))]
					body = fmt.Sprintf(`{"kind":"run","app":%q,"scale":%g}`, app, scale)
				} else {
					body = fmt.Sprintf(`{"kind":"fleet","app":"amg","ranks":2,"scale":%g}`, scale)
				}
				outcome, micros := submitOnce(client, target, body)
				stats := &co.Batch
				if interactive {
					stats = &co.Interactive
				}
				mu.Lock()
				switch outcome {
				case outcomeAccepted:
					stats.Accepted++
					stats.latencies = append(stats.latencies, micros)
				case outcomeBackpressed:
					stats.Backpressed++
				default:
					stats.Invalid++
				}
				mu.Unlock()
			}
		}(cl)
	}
	wg.Wait()

	for _, st := range []*classStats{&co.Interactive, &co.Batch} {
		st.P50Micros = percentile(st.latencies, 50)
		st.P90Micros = percentile(st.latencies, 90)
		st.P99Micros = percentile(st.latencies, 99)
	}
	accepted := co.Interactive.Accepted + co.Batch.Accepted
	co.Throughput = float64(accepted) / dur.Seconds()
	invalid := co.Interactive.Invalid + co.Batch.Invalid
	switch {
	case invalid > 0:
		co.Reason = fmt.Sprintf("%d transport/5xx failures", invalid)
	case accepted == 0 && co.Interactive.Backpressed+co.Batch.Backpressed > 0:
		co.Reason = reasonSaturated
	case accepted == 0:
		co.Reason = "no accepted submissions"
	default:
		co.Valid = true
	}
	return co
}

// reasonSaturated is the Reason of a cohort whose every submission got
// HTTP 429: the targets were reachable and healthy but turned all work
// away.
const reasonSaturated = "saturated"

// submitOnce posts one job and classifies the outcome. Latency is the
// submission round trip — what a client waits before it holds a job ID
// (or a store-served result).
func submitOnce(client *http.Client, target, body string) (loadOutcome, int64) {
	start := time.Now()
	resp, err := client.Post(target+"/jobs", "application/json", strings.NewReader(body))
	micros := time.Since(start).Microseconds()
	if err != nil {
		return outcomeInvalid, micros
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return outcomeBackpressed, micros
	case resp.StatusCode >= 200 && resp.StatusCode < 300:
		return outcomeAccepted, micros
	default:
		return outcomeInvalid, micros
	}
}

// percentile returns the p-th percentile of micros (nearest-rank), 0
// for an empty sample.
func percentile(micros []int64, p int) int64 {
	if len(micros) == 0 {
		return 0
	}
	s := append([]int64(nil), micros...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	rank := (len(s)*p + 99) / 100
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// writeLoadReport renders the matrix as text.
func writeLoadReport(w io.Writer, r *LoadReport) {
	fmt.Fprintf(w, "loadgen: %d clients, %.0f%% interactive, targets %s\n\n",
		r.Clients, r.Mix*100, strings.Join(r.Targets, " "))
	fmt.Fprintf(w, "%-7s %-8s %-10s %10s %10s %10s %10s %8s\n",
		"cohort", "class", "accepted", "429", "p50(µs)", "p90(µs)", "p99(µs)", "valid")
	for i := range r.Cohorts {
		co := &r.Cohorts[i]
		valid := "yes"
		if !co.Valid {
			valid = "NO: " + co.Reason
		}
		for _, row := range []struct {
			name string
			st   *classStats
		}{{"inter", &co.Interactive}, {"batch", &co.Batch}} {
			fmt.Fprintf(w, "%-7d %-8s %-10d %10d %10d %10d %10d %8s\n",
				co.Index, row.name, row.st.Accepted, row.st.Backpressed,
				row.st.P50Micros, row.st.P90Micros, row.st.P99Micros, valid)
			valid = "" // print the verdict once per cohort
		}
	}
	fmt.Fprintf(w, "\nvalid cohorts: %d/%d", r.ValidCohorts, len(r.Cohorts))
	if failed := len(r.Cohorts) - r.ValidCohorts - r.SaturatedCohorts; r.SaturatedCohorts > 0 || failed > 0 {
		fmt.Fprintf(w, " (%d saturated: only 429s; %d failed)", r.SaturatedCohorts, failed)
	}
	if r.ValidCohorts > 0 {
		fmt.Fprintf(w, "; aggregate throughput %.1f accepted/s, p50 %dµs, p99 %dµs (valid cohorts only)",
			r.AggThroughput, r.AggP50Micros, r.AggP99Micros)
	}
	fmt.Fprintln(w)
}
