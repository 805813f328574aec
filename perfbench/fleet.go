package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync/atomic"

	"diogenes/internal/apps"
	"diogenes/internal/experiments"
	"diogenes/internal/ffm"
	"diogenes/internal/mpi"
	"diogenes/internal/proc"
	"diogenes/internal/report"
)

const (
	fleetScale = 0.02
	// fleetPerSecond is the nominal operation rate: 20 s gives thirteen
	// cycles of {4, 8, 16} ranks, so the tail (the 11th slowest) is the
	// third fastest 16-rank operation, inside that operation's mode.
	fleetPerSecond = 1.95
	fleetTraced    = 2 // cycles in the traced run
)

var fleetRanks = []int{4, 8, 16}

func fleetOp(ranks int, scale float64) op {
	r, s := itoa(ranks), fmtScale(scale)
	return op{key: fmt.Sprintf("fleet/amg/ranks=%d@%s", ranks, s),
		args:       []string{"-parallel", "2", "fleet", "-app", "amg", "-ranks", r, "-scale", s},
		serialArgs: []string{"fleet", "-app", "amg", "-ranks", r, "-scale", s}}
}

type fleetState struct {
	ops   []op
	ranks map[string]int // op key → world size
	procs atomic.Int64   // simulated processes created by the counting factory
}

func setupFleet(b *bench, repeat int) (state, error) {
	st := &fleetState{ranks: map[string]int{}}
	for _, r := range fleetRanks {
		o := fleetOp(r, fleetScale)
		st.ops = append(st.ops, o)
		st.ranks[o.key] = r
	}
	rng(b.seed, 2).Shuffle(len(st.ops), func(i, j int) { st.ops[i], st.ops[j] = st.ops[j], st.ops[i] })
	// The 4-rank amg fleet CI gates: 6 cross-rank duplicates, 196608 bytes.
	got, err := section5Fleet()
	if repeat == 0 {
		b.checkValue("section5/fleet-amg-4", got, err)
	} else if err != nil {
		return nil, err
	}
	return st, nil
}

// section5Fleet runs `fleet amg -ranks 4 -scale 0.05` and reads the
// duplicate-transfer section of its output.
func section5Fleet() (string, error) {
	out, _, err := cliRun(fleetOp(4, 0.05).args)
	if err != nil {
		return "", err
	}
	dups, total := 0, ""
	in := false
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "Cross-rank duplicate transfers"):
			in = true
		case in && strings.Contains(line, "total duplicate volume"):
			total = strings.TrimSpace(line)
			in = false
		case in && strings.HasPrefix(line, "  ") && !strings.Contains(line, "hash"):
			dups++
		}
	}
	got := fmt.Sprintf("dups=%d; %s", dups, total)
	if dups != 6 || !strings.HasSuffix(total, ": 196608 bytes") {
		return got, fmt.Errorf("want 6 duplicates and 196608 bytes; got %s", got)
	}
	return got, nil
}

func (s *fleetState) measure(b *bench) (map[string]metric, error) {
	return closedLoop(b, s.ops, opCount(b.seconds, fleetPerSecond, len(s.ops))), nil
}

func (s *fleetState) traced(b *bench) (map[string]metric, error) {
	m := tracedLoop(b, s.ops, fleetTraced, s.decompose)
	b.notes["fleet_decomposition"] = "ranks run serially and the skew reference is timed but not attached, so the decomposed table is not compared with the pinned output"
	return m, nil
}

// countingFactory wraps f so every simulated process it creates is counted.
func (s *fleetState) countingFactory(f proc.Factory) proc.Factory {
	prev := f.Prepare
	f.Prepare = func(p *proc.Process) {
		s.procs.Add(1)
		if prev != nil {
			prev(p)
		}
	}
	return f
}

// decompose is `diogenes fleet` with one worker through public calls: one
// FFM pipeline per rank with its report-cache insert, each folded into a
// FleetAccumulator, the whole-world reference run, finalisation and the
// fleet table.
func (s *fleetState) decompose(l *layers, o op) ([]byte, func(), error) {
	ranks := s.ranks[o.key]
	spec, err := apps.ByName("amg")
	if err != nil {
		return nil, nil, err
	}
	keyCfg := ffm.DefaultConfig()
	keyCfg.Factory = spec.Factory()
	mcfg := mpi.Config{Ranks: ranks, BarrierLatency: spec.MPI.BarrierLatency, Factory: s.countingFactory(spec.Factory())}
	s.procs.Store(0)
	acc := ffm.NewFleetAccumulator(ranks, nil, 0)
	for r := 0; r < ranks; r++ {
		key, _ := experiments.CacheKey(experiments.FleetRankID("amg", r, ranks), fleetScale, apps.Original, keyCfg)
		app := mpi.App(spec.MPI.Program(fleetScale, apps.Original), mcfg, r)
		rep, err := pipeline(l, app, mcfg.Factory, key)
		if err != nil {
			return nil, nil, err
		}
		if err := l.time("ffm.fleet_fold_s", func() error {
			return acc.Add(ffm.RankOutcome{Rank: r, Report: rep, Attempts: 1})
		}); err != nil {
			return nil, nil, err
		}
	}
	if err := l.time("mpi.world_reference_s", func() error {
		w, err := mpi.NewWorld(spec.MPI.Program(fleetScale, apps.Original), mcfg, mpi.NoObserved, nil)
		if err != nil {
			return err
		}
		return w.Run()
	}); err != nil {
		return nil, nil, err
	}
	var fr *ffm.FleetReport
	if err := l.time("ffm.fleet_finalize_s", func() (err error) {
		fr, err = acc.Finalize("amg", nil)
		return err
	}); err != nil {
		return nil, nil, err
	}
	var out bytes.Buffer
	if err := l.time("report.fleet_table_s", func() error { return report.FleetTable(&out, fr) }); err != nil {
		return nil, nil, err
	}
	l.count("ffm.fleet_merges", float64(acc.Progress().Merges))
	l.count("mpi.rank_processes", float64(s.procs.Load()))
	l.count("output.bytes", float64(out.Len()))
	probes := func() {
		l.probe("ffm.fleet_json_s", func() error { return fr.WriteJSON(io.Discard) })
	}
	return nil, probes, nil
}

func (s *fleetState) close() {}
