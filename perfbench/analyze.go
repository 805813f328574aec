package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strconv"

	"diogenes/internal/ffm"
	"diogenes/internal/report"
	"diogenes/internal/trace"
)

const (
	analyzeScale = 1.0
	// analyzePerSecond is the nominal operation rate; 20 s gives thirteen
	// cycles of the ten traces.
	analyzePerSecond = 6.5
	analyzeTraced    = 3 // cycles in the traced run
)

type analyzeState struct {
	ops []op
}

// setupAnalyze captures the annotated traces (`run … -records`) of the
// four paper apps at scale 1.0 and of the six families at pool seeds.
func setupAnalyze(b *bench, repeat int) (state, error) {
	dir := filepath.Join(b.tmp, "traces")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	st := &analyzeState{}
	capture := func(key, file string, args []string) error {
		path := filepath.Join(dir, file)
		args = append([]string{"-parallel", "2"}, append(args, "-records", path)...)
		if _, _, err := cliRun(args); err != nil {
			return fmt.Errorf("capturing %s: %w", key, err)
		}
		st.ops = append(st.ops, op{key: "analyze/" + key, args: []string{"analyze", path}})
		return nil
	}
	for _, a := range paperApps {
		o := appRunOp(a, analyzeScale)
		if err := capture(a+"@"+fmtScale(analyzeScale), a+".json", o.args); err != nil {
			return nil, err
		}
	}
	r := rng(b.seed, 3)
	seeds := familySeeds(r)
	for _, f := range familyNames() {
		o := familyRunOp(f, seeds[f])
		key := fmt.Sprintf("%s/seed=%d/steps=%d", f, seeds[f], familySteps)
		if err := capture(key, f+"-"+strconv.FormatUint(seeds[f], 10)+".json", o.args); err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (s *analyzeState) measure(b *bench) (map[string]metric, error) {
	return closedLoop(b, s.ops, opCount(b.seconds, analyzePerSecond, len(s.ops))), nil
}

func (s *analyzeState) traced(b *bench) (map[string]metric, error) {
	return tracedLoop(b, s.ops, analyzeTraced, decomposeAnalyze), nil
}

// decomposeAnalyze is `diogenes analyze <file>` through public calls.
func decomposeAnalyze(l *layers, o op) ([]byte, func(), error) {
	var run *trace.Run
	if err := l.time("trace.decode_s", func() error {
		f, err := os.Open(o.args[1])
		if err != nil {
			return err
		}
		defer f.Close()
		run, err = trace.ReadJSON(f)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var a *ffm.Analysis
	l.time("ffm.analyze_s", func() error {
		a = ffm.Analyze(run, ffm.DefaultAnalysisOptions())
		return nil
	})
	var out bytes.Buffer
	if err := l.time("report.findings_s", func() error {
		if err := report.Overview(&out, a); err != nil {
			return err
		}
		fmt.Fprintln(&out)
		return report.Savings(&out, a)
	}); err != nil {
		return nil, nil, err
	}
	l.count("trace.records", float64(len(run.Records)))
	l.count("graph.nodes", float64(len(a.Graph.CPU)+len(a.Graph.GPU)))
	l.count("ffm.groups", float64(len(a.Overview)))
	l.count("output.bytes", float64(out.Len()))
	return out.Bytes(), nil, nil
}

func (s *analyzeState) close() {}
