package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"diogenes/internal/experiments"
	"diogenes/internal/ffm"
	"diogenes/internal/proc"
	"diogenes/internal/report"
	"diogenes/internal/trace"
)

// pipeline runs one application through the FFM pipeline the way ffm.Run
// does with one worker — reference run, stages 1 to 4, timing match,
// analysis — but through the stages' public entry points, each timed from
// outside as one layer call. cacheKey, when non-empty, adds the report
// cache insert the CLI's engine makes for registered applications.
func pipeline(l *layers, app proc.App, factory proc.Factory, cacheKey string) (*ffm.Report, error) {
	ov := ffm.DefaultOverheads()
	rep := &ffm.Report{App: app.Name()}

	var p *proc.Process
	a0 := heapAllocBytes()
	t0 := time.Now()
	err := l.time("proc.reference_s", func() error {
		p = factory.New()
		return proc.SafeRun(app, p)
	})
	refWall := time.Since(t0)
	a1 := heapAllocBytes()
	if err != nil {
		return nil, fmt.Errorf("uninstrumented run of %s: %w", app.Name(), err)
	}
	rep.UninstrumentedTime = p.ExecTime()
	rep.DeviceOps = p.Dev.Ops()

	t1 := time.Now()
	if err := l.time("ffm.stage1_s", func() (err error) {
		rep.Baseline, err = ffm.RunBaseline(app, factory, ov)
		return err
	}); err != nil {
		return nil, err
	}
	base := rep.Baseline
	var s2, s3, s4 *trace.Run
	if err := l.time("ffm.stage2_s", func() (err error) {
		s2, err = ffm.RunDetailedTracing(app, factory, base, ov)
		return err
	}); err != nil {
		return nil, err
	}
	if err := l.time("ffm.stage3_s", func() (err error) {
		s3, err = ffm.RunMemoryTracing(app, factory, base, ov)
		return err
	}); err != nil {
		return nil, err
	}
	if err := l.time("ffm.stage4_s", func() (err error) {
		s4, rep.Stage4Time, err = ffm.RunSyncUse(app, factory, base, s3, ov)
		return err
	}); err != nil {
		return nil, err
	}
	stagesWall := time.Since(t1)
	a2 := heapAllocBytes()
	rep.Stage1Time, rep.Stage1Overhead = base.ExecTime, base.ProbeOverhead
	rep.Stage2Time, rep.Stage2Overhead = s2.RawExecTime, s2.RawExecTime-s2.ExecTime
	rep.Stage3Time, rep.Stage3Overhead = s3.RawExecTime, s3.RawExecTime-s3.ExecTime

	l.time("ffm.match_timing_s", func() error {
		ffm.MatchStage2Timing(s4, s2)
		return nil
	})
	rep.Trace = s4
	l.time("ffm.analyze_s", func() error {
		rep.Analysis = ffm.Analyze(s4, ffm.DefaultAnalysisOptions())
		return nil
	})
	if cacheKey != "" {
		if err := l.time("experiments.cache_insert_s", func() error {
			_, err := experiments.NewReportCache().Report(cacheKey, func() (*ffm.Report, error) { return rep, nil })
			return err
		}); err != nil {
			return nil, err
		}
	}

	records := len(s4.Records)
	l.value("proc.reference_alloc_mb", float64(a1-a0)/1e6)
	l.value("ffm.stages_alloc_mb", float64(a2-a1)/1e6)
	if records > 0 {
		l.value("proc.ns_per_sim_call", float64(refWall.Nanoseconds())/float64(records))
	}
	l.value("interpose.host_overhead_x", stagesWall.Seconds()/(4*refWall.Seconds()))
	l.value("ffm.virtual_overhead_x", rep.OverheadMultiple())
	l.count("trace.records", float64(records))
	l.count("gpu.device_ops", float64(len(rep.DeviceOps)))
	g := rep.Analysis.Graph
	l.count("graph.nodes", float64(len(g.CPU)+len(g.GPU)))
	l.count("ffm.groups", float64(len(rep.Analysis.Overview)))
	return rep, nil
}

// renderRun writes what `diogenes run` prints for a report, with the
// static-sequence and API-fold queries timed as analysis calls and the
// renderers as rendering calls.
func renderRun(l *layers, rep *ffm.Report) ([]byte, error) {
	a := rep.Analysis
	var out bytes.Buffer
	render := func(f func(w io.Writer) error) error {
		return l.time("report.findings_s", func() error { return f(&out) })
	}
	if err := render(func(w io.Writer) error {
		if err := report.Overview(w, a); err != nil {
			return err
		}
		fmt.Fprintln(w)
		if err := report.Savings(w, a); err != nil {
			return err
		}
		fmt.Fprintln(w)
		return nil
	}); err != nil {
		return nil, err
	}
	var seqs []ffm.StaticSequence
	l.time("ffm.static_sequences_s", func() error { seqs = a.StaticSequences(); return nil })
	if len(seqs) > 0 {
		if err := render(func(w io.Writer) error {
			if err := report.Sequence(w, a, seqs[0]); err != nil {
				return err
			}
			fmt.Fprintln(w)
			return nil
		}); err != nil {
			return nil, err
		}
	}
	var folds []ffm.APIFold
	l.time("ffm.api_folds_s", func() error { folds = a.APIFolds(); return nil })
	if err := render(func(w io.Writer) error {
		if len(folds) > 0 {
			if err := report.ExpandFold(w, a, folds[0]); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
		if err := report.OverheadSummary(w, rep); err != nil {
			return err
		}
		fmt.Fprintln(w)
		return report.OverlapSummary(w, rep.Overlap())
	}); err != nil {
		return nil, err
	}
	l.count("ffm.sequences", float64(len(seqs)))
	l.count("output.bytes", float64(out.Len()))
	return out.Bytes(), nil
}
