package cli

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"diogenes/internal/serve"
)

func TestLoadgenMatrixAndGates(t *testing.T) {
	s, err := serve.New(serve.Options{Workers: 2, QueueCapacity: 32})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	jsonPath := filepath.Join(t.TempDir(), "load.json")
	var out bytes.Buffer
	err = Loadgen(&out, []string{
		"-targets", ts.URL,
		"-clients", "2",
		"-cohorts", "5",
		"-duration", "150ms",
		"-scale", "0.05",
		"-json", jsonPath,
		"-gate",
	})
	if err != nil {
		t.Fatalf("loadgen: %v\n%s", err, out.String())
	}
	text := out.String()
	if !strings.Contains(text, "valid cohorts: 5/5") {
		t.Fatalf("gated run did not report 5/5 valid cohorts:\n%s", text)
	}
	if !strings.Contains(text, "validity gates passed") {
		t.Fatalf("gated run did not announce the gate verdict:\n%s", text)
	}

	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep LoadReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatalf("exported matrix is not JSON: %v", err)
	}
	if rep.ValidCohorts != 5 || len(rep.Cohorts) != 5 {
		t.Fatalf("exported matrix has %d/%d valid cohorts, want 5/5", rep.ValidCohorts, len(rep.Cohorts))
	}
	if rep.AggThroughput <= 0 {
		t.Fatalf("aggregate throughput %v, want > 0", rep.AggThroughput)
	}
	for _, co := range rep.Cohorts {
		if co.Interactive.Invalid != 0 || co.Batch.Invalid != 0 {
			t.Fatalf("cohort %d recorded invalid outcomes against a healthy server: %+v", co.Index, co)
		}
	}
}

// TestLoadgenGateFailsOnDeadTarget: transport failures invalidate every
// cohort, and the gate turns that into a distinct nonzero exit.
func TestLoadgenGateFailsOnDeadTarget(t *testing.T) {
	var out bytes.Buffer
	err := Loadgen(&out, []string{
		"-targets", "127.0.0.1:1", // nothing listens on port 1
		"-clients", "1",
		"-cohorts", "5",
		"-duration", "20ms",
		"-gate",
	})
	if err == nil {
		t.Fatal("gate passed against a dead target")
	}
	var ec *ExitCodeError
	if !errors.As(err, &ec) || ec.Code != 3 {
		t.Fatalf("gate failure error %v, want ExitCodeError code 3", err)
	}
}

// TestLoadgenSaturatedCohorts: against a target that answers every
// submission with 429, each cohort is reported as saturated — counted
// apart from failed cohorts — and still fails the gate.
func TestLoadgenSaturatedCohorts(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/healthz" {
			fmt.Fprint(w, `{"status":"ok","queueDepth":0}`)
			return
		}
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusTooManyRequests)
	}))
	defer ts.Close()

	jsonPath := filepath.Join(t.TempDir(), "load.json")
	var out bytes.Buffer
	err := Loadgen(&out, []string{
		"-targets", ts.URL,
		"-clients", "1",
		"-cohorts", "5",
		"-duration", "20ms",
		"-json", jsonPath,
		"-gate",
	})
	var ec *ExitCodeError
	if !errors.As(err, &ec) || ec.Code != 3 {
		t.Fatalf("gate on saturated cohorts: error %v, want ExitCodeError code 3\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "(5 saturated: only 429s; 0 failed)") {
		t.Fatalf("report does not count saturated cohorts apart:\n%s", out.String())
	}
	raw, err := os.ReadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep LoadReport
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.ValidCohorts != 0 || rep.SaturatedCohorts != 5 {
		t.Fatalf("valid %d, saturated %d; want 0 and 5", rep.ValidCohorts, rep.SaturatedCohorts)
	}
	for _, co := range rep.Cohorts {
		if co.Valid || co.Reason != "saturated" {
			t.Fatalf("cohort %d: valid %v reason %q, want not valid and \"saturated\"", co.Index, co.Valid, co.Reason)
		}
		if co.Interactive.Backpressed+co.Batch.Backpressed == 0 {
			t.Fatalf("cohort %d recorded no 429s", co.Index)
		}
	}
}

// TestDrainQueuesWaitsForEmptyQueue: the barrier between cohorts returns
// only once /healthz reports depth 0, and gives up on a queue that never
// drains.
func TestDrainQueuesWaitsForEmptyQueue(t *testing.T) {
	var probes atomic.Int32
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		depth := max(0, 3-int(probes.Add(1)))
		fmt.Fprintf(w, `{"status":"ok","queueDepth":%d}`, depth)
	}))
	defer draining.Close()
	if err := drainQueues(http.DefaultClient, []string{draining.URL}, time.Minute); err != nil {
		t.Fatalf("drain of an emptying queue: %v", err)
	}
	if n := probes.Load(); n != 3 {
		t.Fatalf("drain returned after %d probes, want 3 (depth 2, 1, 0)", n)
	}

	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"status":"ok","queueDepth":4}`)
	}))
	defer stuck.Close()
	if err := drainQueues(http.DefaultClient, []string{stuck.URL}, 20*time.Millisecond); err == nil {
		t.Fatal("drain of a stuck queue succeeded")
	}
}

func TestLoadgenRejectsBadFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-clients", "0"},
		{"-cohorts", "0"},
		{"-mix", "1.5"},
		{"-targets", " , "},
		{"positional"},
	} {
		if err := Loadgen(&bytes.Buffer{}, args); err == nil {
			t.Fatalf("args %v accepted, want an error", args)
		}
	}
}

func TestPercentile(t *testing.T) {
	micros := []int64{50, 10, 40, 30, 20}
	cases := []struct {
		p    int
		want int64
	}{{50, 30}, {90, 50}, {99, 50}, {100, 50}}
	for _, c := range cases {
		if got := percentile(micros, c.p); got != c.want {
			t.Fatalf("percentile(%d) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Fatalf("percentile of empty sample = %d, want 0", got)
	}
	// The input must not be reordered in place.
	if micros[0] != 50 {
		t.Fatalf("percentile mutated its input: %v", micros)
	}
}
