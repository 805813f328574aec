package main

import (
	"bytes"
	"fmt"
	"runtime"
	"strings"
	"time"

	"diogenes/internal/cli"
)

// op is one closed-loop operation: a command line for cli.Main and the key
// its output is pinned under.
type op struct {
	key  string
	args []string
	// serialArgs, when set, is the one-worker form of args that a traced
	// run compares its serial decomposition with.
	serialArgs []string
}

// cliRun runs one command line in process and returns its standard output
// and wall time; a non-zero exit is an error.
func cliRun(args []string) ([]byte, float64, error) {
	var out, errb bytes.Buffer
	t0 := time.Now()
	code := cli.Main(args, &out, &errb)
	d := time.Since(t0).Seconds()
	if code != 0 {
		return out.Bytes(), d, fmt.Errorf("exit %d: %s", code, strings.TrimSpace(errb.String()))
	}
	return out.Bytes(), d, nil
}

// closedLoop runs the operation list round robin with one client, n
// operations in all, and reports the end-to-end metrics. Between
// operations (untimed) the heap is collected, so each starts with no
// garbage; its pages stay mapped, so an operation's time does not depend
// on how fast the OS hands back memory. ops_per_s is operations per
// second of operation wall time.
func closedLoop(b *bench, ops []op, n int) map[string]metric {
	var lat []float64
	var alloc uint64
	for i := 0; i < n; i++ {
		o := ops[i%len(ops)]
		runtime.GC()
		a0 := heapAllocBytes()
		out, d, err := cliRun(o.args)
		alloc += heapAllocBytes() - a0
		lat = append(lat, d)
		b.check(o.key, out, err)
	}
	wall := sum(lat)
	tv, pct := tail(lat)
	b.details["latency_tail_pct"] = metric{pct, "%"}
	b.details["latency_n"] = metric{float64(len(lat)), "count"}
	return map[string]metric{
		"ops_per_s":       {float64(n) / wall, "1/s"},
		"latency_p50_s":   {median(lat), "s"},
		"latency_tail_s":  {tv, "s"},
		"alloc_mb_per_op": {float64(alloc) / 1e6 / float64(n), "MB"},
	}
}

// decomposer runs one operation's inputs through the layers' public
// calls. It returns the output the CLI would print (nil when the
// decomposition renders nothing comparable) and a function of probes to
// run after the operation's accounted wall time.
type decomposer func(l *layers, o op) (out []byte, probes func(), err error)

// tracedLoop is the traced run of a closed-loop workload: each operation
// runs once untraced through cli.Main and once decomposed into timed
// layer calls, cycles times over the list. It returns the per-layer
// metrics with the accounting of the decomposition against the untraced
// operations.
func tracedLoop(b *bench, ops []op, cycles int, dec decomposer) map[string]metric {
	l := newLayers()
	var items []string
	var untraced, traced, inside, e2e []float64
	for c := 0; c < cycles; c++ {
		for _, o := range ops {
			args := o.args
			if o.serialArgs != nil {
				// The decomposition is serial, so it is accounted
				// against the serial command; the end-to-end form is
				// timed too, so both medians are printed.
				args = o.serialArgs
				runtime.GC()
				out, d, err := cliRun(o.args)
				b.check(o.key, out, err)
				e2e = append(e2e, d)
			}
			runtime.GC()
			out, d, err := cliRun(args)
			b.check(o.key, out, err)
			runtime.GC()
			t0 := time.Now()
			dout, probes, err := dec(l, o)
			tw := time.Since(t0).Seconds()
			in := l.endOp()
			if dout != nil || err != nil {
				b.checkAs(o.key+" (decomposed)", o.key, dout, err)
			}
			if err != nil {
				continue
			}
			if probes != nil {
				probes()
			}
			items = append(items, o.key)
			untraced = append(untraced, d)
			traced = append(traced, tw)
			inside = append(inside, in)
			runtime.GC()
		}
	}
	if e2e != nil {
		b.details["untraced_e2e_op_median_s"] = metric{median(e2e), "s"}
		b.notes["accounting"] = "unattributed_s and tracing_overhead_frac account for the serial command (untraced_op_median_s), not the end-to-end one (untraced_e2e_op_median_s)"
	}
	return l.metrics(l.accounting(b, items, untraced, traced, inside))
}
