package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"diogenes/internal/ledger"
	"diogenes/internal/serve"
)

const (
	serveWorkers = 2
	serveQueue   = 16
	serveLedger  = 8 // ledger batch: appends per sealed Merkle root
	replaySteps  = 300
	// serveCapacity is the job rate (1/s) two workers sustained on the
	// mix at the commit that defined the benchmark (2-core x86 box). The
	// offered rates are fixed fractions of it, so a later commit is
	// measured at the same load.
	serveCapacity    = 30.0
	serveNominalRate = 0.35 * serveCapacity
	serveHighShare   = 0.8 // the ladder step whose tail is serve.latency_tail_high_s
	// serveTailLimit is the latency limit on the tail for a ladder step
	// to pass; serveLateBound invalidates a step whose generator ran
	// later than this at its 95th percentile.
	serveTailLimit = 2.0
	serveLateBound = 0.05
	// A run offers the nominal rate for 65% of its seconds, then measures
	// throughput closed-loop for the rest.
	serveNominalShare = 0.65
	serveLadderStep   = 4.0 // seconds per ladder step in the traced run
	serveClients      = 8   // closed-loop clients (outstanding jobs) over two connections
)

var serveLadder = []float64{0.6, serveHighShare, 1.0, 1.2} // × serveCapacity

// Input pools; expected.json pins every document they can produce.
var (
	hotSet = func() []serve.Request {
		var rs []serve.Request
		for _, a := range paperApps {
			for _, s := range []float64{0.05, 0.1} {
				rs = append(rs, serve.Request{Kind: "run", App: a, Scale: s})
			}
		}
		return rs
	}()
	coldPool = func() []serve.Request {
		var rs []serve.Request
		for i := 0; i < 150; i++ {
			rs = append(rs,
				serve.Request{Kind: "run", App: "amg", Scale: roundScale(0.07 + 0.0001*float64(i))},
				serve.Request{Kind: "run", App: "cumf_als", Scale: roundScale(0.018 + 0.00002*float64(i))},
				serve.Request{Kind: "run", App: "rodinia_gaussian", Scale: roundScale(0.9 + 0.001*float64(i))})
		}
		return rs
	}()
	fleetPool = func() []serve.Request {
		var rs []serve.Request
		for i := 0; i < 128; i++ {
			rs = append(rs, serve.Request{Kind: "fleet", App: "amg", Ranks: 4, Scale: roundScale(0.02 + 0.00002*float64(i))})
		}
		return rs
	}()
)

func roundScale(s float64) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(s, 'f', 5, 64), 64)
	return v
}

// mixBlock is the job mix per 20 jobs: 5 hot runs (store reads), 10 cold
// runs (execute, store write, ledger append), 3 inline replays and 2
// fleets (the batch class). Cold inputs are sized to one latency mode
// (~0.05 s of execution each) holding half the jobs, so the median sits
// inside it; fleets and the slowest replays make up the tail.
// The kinds follow this fixed, evenly interleaved order in every run, so
// the seed picks inputs but not how fleets and replays overlap the rest.
var mixBlock = []string{"hot", "cold", "cold", "replay", "hot", "cold", "fleet", "cold", "hot", "cold",
	"replay", "cold", "hot", "cold", "cold", "fleet", "hot", "cold", "replay", "cold"}

// job is one submission of the mix.
type job struct {
	kind string // hot, cold, replay or fleet
	key  string // pinned output key
	body []byte // POST /jobs body
}

func requestKey(r serve.Request) string {
	if r.Kind == "fleet" {
		return fmt.Sprintf("serve/fleet/%s/ranks=%d@%s", r.App, r.Ranks, fmtScale(r.Scale))
	}
	return fmt.Sprintf("serve/run/%s@%s", r.App, fmtScale(r.Scale))
}

func replayKey(fam string, seed uint64) string {
	return fmt.Sprintf("serve/replay/%s/seed=%d/steps=%d", fam, seed, replaySteps)
}

// mixer draws the run's jobs from the pools. Kinds follow mixBlock's
// fixed order; within a kind, inputs rotate over
// the applications and families so every run carries the same mix, and
// the seed picks scales and family seeds. Cold and fleet inputs are never
// reused within a run, so each really executes.
type mixer struct {
	perm    []int // cold scale indices, seeded order
	fleet   []int
	traces  map[string][]byte // replay key → captured trace
	tracesK []string          // one per family, in family order
	counts  map[string]int    // jobs drawn so far, by kind
}

func (m *mixer) next(n int) ([]job, error) {
	var out []job
	for len(out) < n {
		for _, kind := range mixBlock {
			k := m.counts[kind]
			m.counts[kind]++
			var req serve.Request
			key := ""
			switch kind {
			case "hot":
				req = hotSet[k%len(hotSet)]
			case "cold":
				if k/3 >= len(m.perm) {
					return nil, fmt.Errorf("cold input pool exhausted")
				}
				req = coldPool[3*m.perm[k/3]+k%3]
			case "fleet":
				if k >= len(m.fleet) {
					return nil, fmt.Errorf("fleet input pool exhausted")
				}
				req = fleetPool[m.fleet[k]]
			case "replay":
				key = m.tracesK[k%len(m.tracesK)]
				req = serve.Request{Kind: "replay", Trace: m.traces[key]}
			}
			if key == "" {
				key = requestKey(req)
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			out = append(out, job{kind: kind, key: key, body: body})
		}
	}
	return out[:n], nil
}

// captureReplay captures a family trace the way a user would for an
// inline replay: `run -family … -records file`.
func captureReplay(dir, fam string, seed uint64) ([]byte, error) {
	path := filepath.Join(dir, fmt.Sprintf("%s-%d.json", fam, seed))
	args := []string{"run", "-family", fam, "-seed", strconv.FormatUint(seed, 10), "-steps", itoa(replaySteps), "-records", path}
	if _, _, err := cliRun(args); err != nil {
		return nil, err
	}
	return os.ReadFile(path)
}

// server is one in-process serve.Server on a loopback listener.
type server struct {
	srv    *serve.Server
	http   *http.Server
	base   string
	client *http.Client
	done   chan struct{}
}

func startServer(dir string) (*server, error) {
	srv, err := serve.New(serve.Options{Workers: serveWorkers, QueueCapacity: serveQueue,
		StoreDir: dir, LedgerBatch: serveLedger, LedgerFlush: -1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(context.Background())
		return nil, err
	}
	s := &server{srv: srv, http: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		base:   "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}},
		done:   make(chan struct{})}
	go func() {
		defer close(s.done)
		s.http.Serve(ln)
	}()
	return s, nil
}

func (s *server) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	s.http.Shutdown(ctx)
	<-s.done
	s.srv.Shutdown(ctx)
	s.client.CloseIdleConnections()
}

// outcome is one job's measured life.
type outcome struct {
	job      job
	due      time.Time
	late     float64 // dispatcher lateness
	latency  float64 // due → report received
	submit   float64 // POST round trip
	fetch    float64 // GET report round trip
	rejected bool
	err      error
	view     serve.View
	doc      []byte
}

// do submits one job, waits for it through Server.Job(id).Done(), and
// fetches its stored document over HTTP.
func (s *server) do(j job, due time.Time) outcome {
	o := outcome{job: j, due: due}
	t0 := time.Now()
	resp, err := s.client.Post(s.base+"/jobs", "application/json", bytes.NewReader(j.body))
	if err != nil {
		o.err = err
		return o
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	o.submit = time.Since(t0).Seconds()
	if resp.StatusCode == http.StatusTooManyRequests {
		o.rejected = true
		return o
	}
	if err != nil || (resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted) {
		o.err = fmt.Errorf("submit: HTTP %d: %s %v", resp.StatusCode, strings.TrimSpace(string(body)), err)
		return o
	}
	var v serve.View
	if err := json.Unmarshal(body, &v); err != nil {
		o.err = fmt.Errorf("submit: %w", err)
		return o
	}
	h := s.srv.Job(v.ID)
	if h == nil {
		o.err = fmt.Errorf("job %s vanished", v.ID)
		return o
	}
	<-h.Done()
	t1 := time.Now()
	resp, err = s.client.Get(s.base + "/jobs/" + v.ID + "/report?format=doc")
	if err != nil {
		o.err = err
		return o
	}
	o.doc, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	o.fetch = end.Sub(t1).Seconds()
	o.latency = end.Sub(due).Seconds()
	if err == nil && resp.StatusCode != http.StatusOK {
		err = fmt.Errorf("report: HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(o.doc)))
	}
	o.err = err
	o.view = h.View()
	return o
}

// openLoop offers jobs at the given rate on a seeded jittered schedule and
// times each from when it was due. It returns after every job finished.
func (s *server) openLoop(jobs []job, rate float64, r *rand.Rand) []outcome {
	out := make([]outcome, len(jobs))
	var wg sync.WaitGroup
	start := time.Now().Add(20 * time.Millisecond)
	for i, j := range jobs {
		due := start.Add(time.Duration((float64(i) + 0.4*(r.Float64()-0.5)) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		late := time.Since(due).Seconds()
		wg.Add(1)
		go func(i int, j job) {
			defer wg.Done()
			out[i] = s.do(j, due)
			out[i].late = late
		}(i, j)
	}
	wg.Wait()
	return out
}

// closedLoop runs jobs with serveClients clients, each submitting its
// next job when the previous report arrives. With more clients than
// workers the queue never runs dry, so the completion rate is the
// server's capacity on the mix. It is taken over the whole phase: batch
// jobs wait behind interactive ones and finish last, so any window short
// of the last completion would leave a varying share of them out.
func (s *server) closedLoop(jobs []job) ([]outcome, float64) {
	out := make([]outcome, len(jobs))
	var next sync.Mutex
	i := 0
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				next.Lock()
				k := i
				i++
				next.Unlock()
				if k >= len(jobs) {
					return
				}
				out[k] = s.do(jobs[k], time.Now())
			}
		}()
	}
	wg.Wait()
	return out, float64(len(jobs)) / time.Since(t0).Seconds()
}

// drain is the barrier between rate steps: it waits until /healthz
// reports an empty queue, so every step starts from the same state.
func (s *server) drain() error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := s.client.Get(s.base + "/healthz")
		if err != nil {
			return err
		}
		var h struct {
			QueueDepth int `json:"queueDepth"`
		}
		err = json.NewDecoder(resp.Body).Decode(&h)
		resp.Body.Close()
		if err != nil {
			return err
		}
		if h.QueueDepth == 0 {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return errors.New("queue did not drain within 60s")
}

// scrape reads counters and gauges from /metrics.
func (s *server) scrape() (map[string]float64, error) {
	resp, err := s.client.Get(s.base + "/metrics?format=prom")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out, sc.Err()
}

type serveState struct {
	dir  string
	srv  *server
	mix  *mixer
	r    *rand.Rand
	cold map[string][]byte // this run's persisted documents by store key
}

func setupServe(b *bench, repeat int) (state, error) {
	dir := filepath.Join(b.tmp, fmt.Sprintf("serve-%d", repeat))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := rng(b.seed, 4)
	m := &mixer{perm: r.Perm(len(coldPool) / 3), fleet: r.Perm(len(fleetPool)),
		traces: map[string][]byte{}, counts: map[string]int{}}
	// The replay traces this run can draw: one pool seed per family.
	seeds := familySeeds(r)
	for _, f := range familyNames() {
		data, err := captureReplay(dir, f, seeds[f])
		if err != nil {
			return nil, err
		}
		k := replayKey(f, seeds[f])
		m.traces[k] = data
		m.tracesK = append(m.tracesK, k)
	}
	srv, err := startServer(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	st := &serveState{dir: dir, srv: srv, mix: m, r: r, cold: map[string][]byte{}}
	// Warm the hot set so its keys become store reads.
	var warm []job
	for _, req := range hotSet {
		body, _ := json.Marshal(req)
		warm = append(warm, job{kind: "warm", key: requestKey(req), body: body})
	}
	for _, o := range srv.openLoop(warm, 1000, r) {
		if o.err != nil || o.rejected {
			st.close()
			return nil, fmt.Errorf("warming %s: rejected=%v %v", o.job.key, o.rejected, o.err)
		}
		if repeat == 0 {
			b.check(o.job.key, o.doc, nil)
		}
	}
	if err := srv.drain(); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (s *serveState) close() {
	s.srv.close()
	os.RemoveAll(s.dir)
}

// account checks every outcome's document and returns the latencies with
// refusals counted as missing every limit (+Inf). Documents the run
// persisted are kept for the store replay when keep is set.
func (s *serveState) account(b *bench, outs []outcome, keep bool) (lat []float64, rejected int) {
	byKind := map[string][]float64{}
	for _, o := range outs {
		if o.rejected {
			rejected++
			lat = append(lat, inf)
			continue
		}
		if b.check(o.job.key, o.doc, o.err) && keep && o.job.kind != "replay" && !o.view.FromStore && o.view.StoreKey != "" {
			s.cold[o.view.StoreKey] = o.doc
		}
		lat = append(lat, o.latency)
		byKind[o.job.kind] = append(byKind[o.job.kind], o.latency)
	}
	if keep {
		for k, xs := range byKind {
			b.details["nominal_latency_p50_"+k+"_s"] = metric{median(xs), "s"}
		}
	}
	return lat, rejected
}

const inf = 1e300 // a refused request's latency: beyond any limit

func lateness(outs []outcome) float64 {
	var xs []float64
	for _, o := range outs {
		xs = append(xs, o.late)
	}
	return percentile(xs, 95)
}

// phaseJobs draws whole blocks of the mix for seconds at rate, so every
// phase carries the mix's exact shares.
func (s *serveState) phaseJobs(seconds float64, rate float64) ([]job, error) {
	b := len(mixBlock)
	n := (int(seconds*rate+0.5) + b/2) / b * b
	if n < b {
		n = b
	}
	return s.mix.next(n)
}

// nominal runs the open-loop step at the nominal rate.
func (s *serveState) nominal(b *bench) ([]outcome, error) {
	jobs, err := s.phaseJobs(float64(b.seconds)*serveNominalShare, serveNominalRate)
	if err != nil {
		return nil, err
	}
	outs := s.srv.openLoop(jobs, serveNominalRate, s.r)
	late := lateness(outs)
	b.details["nominal_rate_per_s"] = metric{serveNominalRate, "1/s"}
	b.details["nominal_lateness_p95_s"] = metric{late, "s"}
	// A late generator did not offer the nominal rate, so the step's
	// latencies are invalid: the run counts it as a failed check.
	var lateErr error
	if late > serveLateBound {
		lateErr = fmt.Errorf("generator lateness p95 %.3fs exceeds %.3fs", late, serveLateBound)
	}
	b.checkValue("serve/nominal-lateness", "", lateErr)
	return outs, s.srv.drain()
}

func (s *serveState) measure(b *bench) (map[string]metric, error) {
	a0 := heapAllocBytes()
	outs, err := s.nominal(b)
	if err != nil {
		return nil, err
	}
	lat, rej := s.account(b, outs, true)
	jobs, err := s.phaseJobs(float64(b.seconds)*(1-serveNominalShare), serveCapacity)
	if err != nil {
		return nil, err
	}
	sat, rate := s.srv.closedLoop(jobs)
	_, rej2 := s.account(b, sat, false)
	b.details["saturation_jobs"] = metric{float64(len(sat)), "count"}
	alloc := heapAllocBytes() - a0
	n := len(outs) + len(sat)
	tv, pct := tail(lat)
	b.details["latency_tail_pct"] = metric{pct, "%"}
	b.details["latency_n"] = metric{float64(len(lat)), "count"}
	b.details["rejected_frac"] = metric{float64(rej+rej2) / float64(n), "frac"}
	return map[string]metric{
		"ops_per_s":       {rate, "1/s"},
		"latency_p50_s":   {median(lat), "s"},
		"latency_tail_s":  {tv, "s"},
		"alloc_mb_per_op": {float64(alloc) / 1e6 / float64(n), "MB"},
	}, nil
}

func parseTime(s string) time.Time {
	t, _ := time.Parse(time.RFC3339Nano, s)
	return t
}

func (s *serveState) traced(b *bench) (map[string]metric, error) {
	l := newLayers()
	extra := map[string]float64{}
	t0 := time.Now()
	outs, err := s.nominal(b)
	if err != nil {
		return nil, err
	}
	phase := time.Since(t0).Seconds()
	lat, _ := s.account(b, outs, true)
	// Ledger and queue counters, and the store replay, cover the set-up
	// and the nominal step, where nothing is refused, so counts repeat.
	m, err := s.srv.scrape()
	if err != nil {
		return nil, err
	}
	extra["ledger.appends"] = m["diogenes_ledger_appends"]
	extra["ledger.seals"] = m["diogenes_ledger_seals"]
	extra["sched.jobqueue_depth_peak"] = m["diogenes_sched_jobqueue_depth_peak"]
	if err := s.storeReplay(b, l); err != nil {
		return nil, err
	}
	var items []string
	var untraced, inside []float64
	var busy float64
	hits, keyed := 0, 0
	for _, o := range outs {
		if o.rejected || o.err != nil {
			continue
		}
		l.charge("serve.submit_s", o.submit)
		l.charge("serve.fetch_s", o.fetch)
		in := o.submit + o.fetch
		v := o.view
		if v.StoreKey != "" {
			keyed++
			if v.FromStore {
				hits++
			}
		}
		if v.StartedAt != "" {
			wait := parseTime(v.StartedAt).Sub(parseTime(v.CreatedAt)).Seconds()
			exec := parseTime(v.FinishedAt).Sub(parseTime(v.StartedAt)).Seconds()
			if v.Kind == "fleet" {
				l.charge("serve.queue_wait_batch_s", wait)
			} else {
				l.charge("serve.queue_wait_interactive_s", wait)
			}
			l.charge("serve.exec_s", exec)
			in += wait + exec
			busy += exec
		}
		l.endOp()
		items = append(items, o.job.key)
		untraced = append(untraced, o.latency)
		inside = append(inside, in)
	}
	// Service timings come from the HTTP boundary and the jobs' own
	// timestamps: no timer runs inside an operation, so the traced and
	// untraced walls are the same measurement.
	for k, v := range l.accounting(b, items, untraced, untraced, inside) {
		extra[k] = v
	}
	b.details["nominal_latency_p50_s"] = metric{median(lat), "s"}
	extra["serve.store_hit_frac"] = float64(hits) / float64(max(keyed, 1))
	extra["sched.utilization_pct"] = 100 * busy / (serveWorkers * phase)
	extra["loadgen.lateness_p95_s"] = lateness(outs)

	// The rate ladder: each step starts drained; it passes when its
	// generator was on time, nothing was refused, and its tail stayed
	// under the limit.
	var stepRejected, stepJobs int
	best := 0.0
	for _, f := range serveLadder {
		rate := f * serveCapacity
		jobs, err := s.phaseJobs(serveLadderStep, rate)
		if err != nil {
			return nil, err
		}
		outs := s.srv.openLoop(jobs, rate, s.r)
		if err := s.srv.drain(); err != nil {
			return nil, err
		}
		lat, rej := s.account(b, outs, false)
		tv, _ := tail(lat)
		late := lateness(outs)
		stepRejected += rej
		stepJobs += len(outs)
		if f == serveHighShare {
			extra["serve.latency_tail_high_s"] = tv
		}
		ok := rej == 0 && late <= serveLateBound && tv <= serveTailLimit
		b.details["ladder_"+fmtScale(rate)+"_tail_s"] = metric{tv, "s"}
		if ok && rate > best {
			best = rate
		}
	}
	extra["serve.max_rate_per_s"] = best
	extra["serve.rejected_frac"] = float64(stepRejected) / float64(stepJobs)
	return l.metrics(extra), nil
}

// storeReplay writes this run's persisted documents into a fresh
// DiskStore with a ledger attached, then reads each back: the store and
// ledger layers timed alone.
func (s *serveState) storeReplay(b *bench, l *layers) error {
	dir := filepath.Join(s.dir, "replay-store")
	store, err := serve.OpenDiskStore(dir, 0)
	if err != nil {
		return err
	}
	led, err := ledger.Open(ledger.Config{Path: filepath.Join(dir, "ledger.log"), BatchSize: serveLedger, FlushInterval: -1})
	if err != nil {
		return err
	}
	store.AttachLedger(led)
	keys := sortedKeys(s.cold)
	for _, k := range keys {
		if err := l.probe("serve.store_put_s", func() error { return store.Put(k, s.cold[k]) }); err != nil {
			led.Close()
			return err
		}
	}
	for _, k := range keys {
		var got []byte
		err := l.probe("serve.store_get_s", func() (err error) { got, err = store.Get(k); return err })
		if err == nil && !bytes.Equal(got, s.cold[k]) {
			err = fmt.Errorf("store returned different bytes")
		}
		b.checkValue("serve/store-replay/"+k[:12], "", err)
	}
	return led.Close()
}

// pinServe records the document of every pool input through one server.
func pinServe(b *bench) error {
	dir := filepath.Join(b.tmp, "pin-serve")
	srv, err := startServer(filepath.Join(dir, "store"))
	if err != nil {
		return err
	}
	defer srv.close()
	var jobs []job
	for _, reqs := range [][]serve.Request{hotSet, coldPool, fleetPool} {
		for _, req := range reqs {
			body, _ := json.Marshal(req)
			jobs = append(jobs, job{key: requestKey(req), body: body})
		}
	}
	for _, f := range familyNames() {
		for _, seed := range familySeedPool {
			data, err := captureReplay(dir, f, seed)
			if err != nil {
				return err
			}
			body, _ := json.Marshal(serve.Request{Kind: "replay", Trace: data})
			jobs = append(jobs, job{key: replayKey(f, seed), body: body})
		}
	}
	for _, j := range jobs {
		o := srv.do(j, time.Now())
		if o.rejected {
			return fmt.Errorf("pin: %s refused", j.key)
		}
		b.check(j.key, o.doc, o.err)
	}
	return nil
}
