package main

import (
	"fmt"
	"os"
	"path/filepath"
)

// The pin functions run every input each workload's seeds can choose.

func pinRunApps(b *bench) error {
	for _, a := range paperApps {
		o := appRunOp(a, runAppsScale)
		out, _, err := cliRun(o.args)
		b.check(o.key, out, err)
	}
	for _, f := range familyNames() {
		for _, s := range familySeedPool {
			o := familyRunOp(f, s)
			out, _, err := cliRun(o.args)
			b.check(o.key, out, err)
		}
	}
	return nil
}

func pinFleet(b *bench) error {
	for _, r := range fleetRanks {
		o := fleetOp(r, fleetScale)
		out, _, err := cliRun(o.args)
		b.check(o.key, out, err)
	}
	return nil
}

func pinAnalyze(b *bench) error {
	dir := filepath.Join(b.tmp, "pin-traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	analyze := func(key string, args []string) {
		path := filepath.Join(dir, "trace.json")
		if _, _, err := cliRun(append(args, "-records", path)); err != nil {
			b.check("analyze/"+key, nil, err)
			return
		}
		out, _, err := cliRun([]string{"analyze", path})
		b.check("analyze/"+key, out, err)
	}
	for _, a := range paperApps {
		analyze(a+"@"+fmtScale(analyzeScale), appRunOp(a, analyzeScale).args)
	}
	for _, f := range familyNames() {
		for _, s := range familySeedPool {
			analyze(fmt.Sprintf("%s/seed=%d/steps=%d", f, s, familySteps), familyRunOp(f, s).args)
		}
	}
	return nil
}
