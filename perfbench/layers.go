package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Per-layer metrics. A timing metric names one public call (or a fixed
// group of calls) timed from outside; it is reported as its median over
// the operations that made the call, its tail (tail()), and the sample
// count. Count metrics are totals over the traced run and repeat exactly
// for one seed. Every metric is printed on every workload; a layer a
// workload never reaches reads 0 with a sample count of 0.
var layerTimings = []string{
	// substrate
	"proc.reference_s",      // proc.Factory.New + proc.SafeRun, uninstrumented
	"mpi.world_reference_s", // mpi.NewWorld + World.Run, NoObserved
	// instrumentation
	"ffm.stage1_s", // ffm.RunBaseline
	"ffm.stage2_s", // ffm.RunDetailedTracing
	"ffm.stage3_s", // ffm.RunMemoryTracing
	"ffm.stage4_s", // ffm.RunSyncUse
	"trace.decode_s",
	"trace.encode_s", // probe: trace.Run.WriteJSON, nested in cache insert and serve exec
	// analysis
	"ffm.match_timing_s",
	"ffm.analyze_s",
	"ffm.static_sequences_s",
	"ffm.api_folds_s",
	"ffm.fleet_fold_s", // FleetAccumulator.Add
	"ffm.fleet_finalize_s",
	// engine
	"experiments.cache_insert_s", // NewReportCache().Report on a computed report
	// rendering
	"report.findings_s",    // the renderers `run`/`analyze` print
	"report.markdown_s",    // probe: report.WriteMarkdown, what serve run/replay jobs render
	"ffm.fleet_json_s",     // probe: FleetReport.WriteJSON, what serve fleet jobs encode
	"report.fleet_table_s", // report.FleetTable
	// service
	"serve.submit_s", // POST /jobs round trip
	"serve.fetch_s",  // GET /jobs/{id}/report?format=doc round trip
	"serve.queue_wait_interactive_s",
	"serve.queue_wait_batch_s",
	"serve.exec_s",
	"serve.store_put_s", // DiskStore.Put with a ledger attached
	"serve.store_get_s", // DiskStore.Get
}

// layerScalars are the per-layer metrics that are not call timings.
var layerScalars = []struct{ name, unit string }{
	{"proc.reference_alloc_mb", "MB"},
	{"proc.ns_per_sim_call", "ns"},
	{"gpu.device_ops", "count"},
	{"mpi.rank_processes", "count"},
	{"ffm.stages_alloc_mb", "MB"},
	{"interpose.host_overhead_x", "x"},
	{"ffm.virtual_overhead_x", "x"},
	{"trace.records", "count"},
	{"graph.nodes", "count"},
	{"ffm.groups", "count"},
	{"ffm.sequences", "count"},
	{"ffm.fleet_merges", "count"},
	{"output.bytes", "count"},
	{"serve.store_hit_frac", "frac"},
	{"serve.rejected_frac", "frac"},
	{"serve.latency_tail_high_s", "s"},
	{"serve.max_rate_per_s", "1/s"},
	{"ledger.appends", "count"},
	{"ledger.seals", "count"},
	{"sched.jobqueue_depth_peak", "jobs"},
	{"sched.utilization_pct", "%"},
	{"loadgen.lateness_p95_s", "s"},
	{"unattributed_s", "s"},
	{"tracing_overhead_frac", "frac"},
}

func timingNames(name string) (med, tl, n string) {
	base := strings.TrimSuffix(name, "_s")
	return name, base + "_tail_s", base + "_n"
}

// layers records, per operation of a traced run, the wall time of each
// layer call timed from outside, plus counts and per-operation values.
type layers struct {
	op      map[string]float64   // current operation: seconds per layer
	opWall  float64              // current operation: seconds inside timed calls
	charged map[string]bool      // layers charged to operations (not probes)
	samples map[string][]float64 // per-operation totals, by layer
	values  map[string][]float64 // per-operation scalar values
	counts  map[string]float64   // totals over the run
}

func newLayers() *layers {
	return &layers{op: map[string]float64{}, samples: map[string][]float64{},
		values: map[string][]float64{}, counts: map[string]float64{}, charged: map[string]bool{}}
}

// time runs f as one call into layer name and charges its wall time to
// the current operation.
func (l *layers) time(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	l.charge(name, time.Since(t0).Seconds())
	return err
}

// charge adds d seconds of layer name to the current operation.
func (l *layers) charge(name string, d float64) {
	l.op[name] += d
	l.opWall += d
	l.charged[name] = true
}

// probe times f as a sample of layer name without charging the current
// operation: for calls nested inside another timed call, or made by the
// program on another path over the same data. Probes run outside the
// operation's accounted wall time.
func (l *layers) probe(name string, f func() error) error {
	t0 := time.Now()
	err := f()
	l.samples[name] = append(l.samples[name], time.Since(t0).Seconds())
	return err
}

func (l *layers) value(name string, v float64) { l.values[name] = append(l.values[name], v) }
func (l *layers) count(name string, v float64) { l.counts[name] += v }

// endOp closes the current operation and returns the seconds spent inside
// its timed calls.
func (l *layers) endOp() float64 {
	for k, v := range l.op {
		l.samples[k] = append(l.samples[k], v)
	}
	w := l.opWall
	l.op, l.opWall = map[string]float64{}, 0
	return w
}

// metrics renders every per-layer metric; extra holds the ones a workload
// sets directly (service scrapes, accounting).
func (l *layers) metrics(extra map[string]float64) map[string]metric {
	out := map[string]metric{}
	for _, t := range layerTimings {
		med, tl, n := timingNames(t)
		xs := l.samples[t]
		tv, _ := tail(xs)
		out[med] = metric{median(xs), "s"}
		out[tl] = metric{tv, "s"}
		out[n] = metric{float64(len(xs)), "count"}
	}
	for _, s := range layerScalars {
		v := l.counts[s.name]
		if xs, ok := l.values[s.name]; ok {
			v = median(xs)
		}
		if x, ok := extra[s.name]; ok {
			v = x
		}
		out[s.name] = metric{v, s.unit}
	}
	return out
}

// accounting compares a traced run with the untraced operations it
// decomposes. untraced and traced are per-operation wall times of the same
// inputs in the same order; inside is each traced operation's time inside
// timed calls. unattributed_s is the untraced operation median minus the
// sum of the per-layer medians charged to operations (probes excluded), so
// the two add up to the untraced median by construction;
// tracing_overhead_frac is the median relative difference between the
// traced and untraced walls. The per-operation view — untraced wall minus
// time inside timed calls — is printed beside it, naming the operation
// with the largest unattributed share.
func (l *layers) accounting(b *bench, items []string, untraced, traced, inside []float64) map[string]float64 {
	var un, over []float64
	worst, worstShare := "", -1.0
	for i := range untraced {
		u := untraced[i] - inside[i]
		un = append(un, u)
		over = append(over, (traced[i]-untraced[i])/untraced[i])
		if share := u / untraced[i]; share > worstShare {
			worst, worstShare = items[i], share
		}
	}
	layerSum := 0.0
	for name := range l.charged {
		layerSum += median(l.samples[name])
	}
	b.details["untraced_op_median_s"] = metric{median(untraced), "s"}
	b.details["traced_op_median_s"] = metric{median(traced), "s"}
	b.details["layer_medians_sum_s"] = metric{layerSum, "s"}
	b.details["unattributed_per_op_median_s"] = metric{median(un), "s"}
	b.details["largest_unattributed_share"] = metric{worstShare, "frac"}
	b.notes["largest_unattributed"] = fmt.Sprintf("%s (%.1f%% of its untraced wall is outside every timed call)", worst, 100*worstShare)
	return map[string]float64{"unattributed_s": median(untraced) - layerSum, "tracing_overhead_frac": median(over)}
}

// checkMetricSet verifies that a result carries exactly the metrics
// BENCHMARK.json declares for its mode, each with the declared unit.
func checkMetricSet(root string, got map[string]metric, traced bool) error {
	want, err := declaredMetrics(root, traced)
	if err != nil {
		return err
	}
	for name, unit := range want {
		m, ok := got[name]
		if !ok {
			return fmt.Errorf("metric %s declared in BENCHMARK.json is not reported", name)
		}
		if m.Unit != unit {
			return fmt.Errorf("metric %s reported in %s, BENCHMARK.json says %s", name, m.Unit, unit)
		}
	}
	for name := range got {
		if _, ok := want[name]; !ok {
			return fmt.Errorf("metric %s is reported but not declared in BENCHMARK.json", name)
		}
	}
	return nil
}

func declaredMetrics(root string, traced bool) (map[string]string, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := spec.EndToEnd
	if traced {
		list = spec.PerLayer
	}
	out := map[string]string{}
	for _, m := range list {
		out[m.Name] = m.Unit
	}
	return out, nil
}
