package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptrace"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"seec"
	"seec/internal/serve"
)

const (
	// openLoopRate is the fixed arrival rate in jobs/s, about 30% of the
	// gateway's capacity for this spec mix on a 2-CPU host (~150 jobs/s).
	// At 60-70% of capacity queueing amplified ordinary host-speed noise
	// into run-to-run spreads far beyond the regression bounds.
	openLoopRate = 45.0
	// hotSpecs is how many specs the prefill phase computes; hotShare of
	// the timed arrivals repeat one of them and are served from the store.
	hotSpecs = 240
	hotShare = 0.4
	// pollEvery is the client's job-status polling period.
	pollEvery = 4 * time.Millisecond
	// clientConns bounds the client's connections to the gateway.
	clientConns = 2
	// restarts is how often set-up (a restart over the state directory,
	// replaying the journal) is repeated; the median is reported.
	restarts = 5
	// coldSweeps is how many cold sweeps of the prefilled specs are
	// timed, each on a fresh gateway over an empty state directory; half
	// run before the timed window and half after it, and the median is
	// reported.
	coldSweeps = 4
	// abRounds and abJobs size the traced/untraced comparison.
	abRounds = 6
	abJobs   = 50
)

// seecdSpec is one submitted job: its request body and the run keys
// and configurations the gateway derives from it.
type seecdSpec struct {
	raw  []byte
	cfgs []seec.Config
	keys []string
}

var seecdSchemes = []string{"seec", "mseec", "escape", "xy", "spin", "swap", "drain", "west-first", "chipper", "minbd"}

// makeSpec builds the i-th spec of a seed. Shapes rotate through three
// templates (4x4 single rate, 4x4 two rates, 8x8 single rate) of about
// equal host cost, so latency percentiles do not sit on the edge between
// a cheap and a dear cluster of jobs, and ten schemes; rates step
// through a fixed low-discrepancy sequence, so
// every seed offers the same mix of work; the seed sets each spec's
// simulator seed, which makes every spec distinct, and (in the caller)
// the order and timing of arrivals.
func makeSpec(i int, seed int64) (*seecdSpec, error) {
	_, pos := math.Modf(float64(i) * 0.6180339887498949)
	rate := func(lo, span float64) float64 { return math.Round((lo+span*pos)*1000) / 1000 }
	sp := serve.JobSpec{
		Scheme:  seecdSchemes[i%len(seecdSchemes)],
		Pattern: "uniform_random",
		Seed:    uint64(seed)<<24 + uint64(i) + 1,
		Warmup:  200,
	}
	switch i % 3 {
	case 0:
		sp.Rows, sp.Cols, sp.SimCycles = 4, 4, 1800
		sp.Rate = rate(0.04, 0.12)
	case 1:
		sp.Rows, sp.Cols, sp.SimCycles = 4, 4, 1000
		lo := rate(0.04, 0.08)
		sp.Rates = []float64{lo, math.Round((lo+0.04)*1000) / 1000}
	case 2:
		sp.Rows, sp.Cols, sp.SimCycles = 8, 8, 400
		sp.Rate = rate(0.02, 0.06)
	}
	raw, err := json.Marshal(sp)
	if err != nil {
		return nil, err
	}
	canon, err := serve.DecodeJobSpec(raw)
	if err != nil {
		return nil, err
	}
	s := &seecdSpec{raw: raw, cfgs: canon.Configs()}
	for _, c := range s.cfgs {
		s.keys = append(s.keys, serve.CacheKey(c))
	}
	return s, nil
}

// computeOracle runs every configuration of specs directly with
// seec.RunSynthetic, on two goroutines, and returns every expected
// result payload by key and the summed work counts of each spec group.
func computeOracle(groups ...[]*seecdSpec) (map[string][]byte, []workCounts, error) {
	type task struct {
		group int
		cfg   seec.Config
		key   string
	}
	var tasks []task
	for g, specs := range groups {
		for _, sp := range specs {
			for i, c := range sp.cfgs {
				tasks = append(tasks, task{g, c, sp.keys[i]})
			}
		}
	}
	payloads := map[string][]byte{}
	counts := make([]workCounts, len(groups))
	var mu sync.Mutex
	var next atomic.Int64
	var firstErr error
	var wg sync.WaitGroup
	for w := 0; w < sweepWorkers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				t := tasks[i]
				var wc workCounts
				cfg := t.cfg
				cfg.Telemetry = func(s *seec.Sim) func(seec.RunEvent) {
					return func(ev seec.RunEvent) {
						if ev.Kind == seec.RunDone {
							wc.addSim(s)
						}
					}
				}
				res, err := seec.RunSynthetic(cfg)
				mu.Lock()
				if err != nil && firstErr == nil {
					firstErr = fmt.Errorf("oracle run %s: %w", t.key[:12], err)
				}
				payloads[t.key] = serve.EncodeResult(res)
				c := &counts[t.group]
				c.FlitHops += wc.FlitHops
				c.Cycles += wc.Cycles
				c.BufferWrites += wc.BufferWrites
				c.SidebandBits += wc.SidebandBits
				c.FFUpgrades += wc.FFUpgrades
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return payloads, counts, firstErr
}

// simSeam wraps the gateway's RunSynthetic seam: it times each
// simulation, records its span and sums its work counters.
type simSeam struct {
	tr atomic.Pointer[Tracer]

	mu     sync.Mutex
	counts workCounts
	busy   time.Duration // built simulator to RunDone, summed
	simMS  []float64     // whole seam call
}

func (m *simSeam) run(ctx context.Context, cfg seec.Config) (seec.Result, error) {
	key := serve.CacheKey(cfg)
	t0 := time.Now()
	var stepStart time.Time
	var wc workCounts
	var stepped time.Duration
	cfg.Telemetry = func(s *seec.Sim) func(seec.RunEvent) {
		stepStart = time.Now()
		return func(ev seec.RunEvent) {
			if ev.Kind == seec.RunDone {
				stepped = time.Since(stepStart)
				wc.addSim(s)
			}
		}
	}
	res, err := seec.RunSyntheticCtx(ctx, cfg)
	t1 := time.Now()
	if tr := m.tr.Load(); tr.on() {
		tr.Add(Span{Name: "serve.sim", Key: key, Start: tr.At(t0), End: tr.At(t1)})
	}
	m.mu.Lock()
	m.busy += stepped
	m.simMS = append(m.simMS, ms(t1.Sub(t0)))
	m.counts.FlitHops += wc.FlitHops
	m.counts.Cycles += wc.Cycles
	m.counts.BufferWrites += wc.BufferWrites
	m.counts.SidebandBits += wc.SidebandBits
	m.counts.FFUpgrades += wc.FFUpgrades
	m.mu.Unlock()
	return res, err
}

// take returns and resets the seam's accumulated measurements.
func (m *simSeam) take() (counts workCounts, busy time.Duration, simMS []float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	counts, busy, simMS = m.counts, m.busy, m.simMS
	m.counts, m.busy, m.simMS = workCounts{}, 0, nil
	return counts, busy, simMS
}

// tracedFS wraps the gateway's durability seam and records a span for
// every journal fsync, every result-store read and every store write
// (from creating the temporary blob to the directory fsync after its
// rename).
type tracedFS struct {
	serve.FS
	tr atomic.Pointer[Tracer]

	mu      sync.Mutex
	pending map[string][]pendingPut // store shard dir -> puts in progress
}

type pendingPut struct {
	key   string
	start time.Time
}

type tracedFile struct {
	serve.File
	fs  *tracedFS
	wal bool
}

func (f *tracedFile) Sync() error {
	t0 := time.Now()
	err := f.File.Sync()
	if tr := f.fs.tr.Load(); f.wal && tr.on() {
		tr.Add(Span{Name: "serve.wal_sync", Start: tr.At(t0), End: tr.At(time.Now())})
	}
	return err
}

// storeKey returns the result key of a path inside the store's object
// directory, or "".
func storeKey(path string) string {
	if !strings.Contains(path, string(filepath.Separator)+"objects"+string(filepath.Separator)) {
		return ""
	}
	base := filepath.Base(path)
	if len(base) < 64 {
		return ""
	}
	return base[:64]
}

func (f *tracedFS) wrap(file serve.File, err error, path string) (serve.File, error) {
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: file, fs: f, wal: filepath.Base(path) == "wal.log"}, nil
}

func (f *tracedFS) Create(path string) (serve.File, error) {
	if key := storeKey(path); key != "" && f.tr.Load().on() {
		f.mu.Lock()
		dir := filepath.Dir(path)
		f.pending[dir] = append(f.pending[dir], pendingPut{key, time.Now()})
		f.mu.Unlock()
	}
	file, err := f.FS.Create(path)
	return f.wrap(file, err, path)
}

func (f *tracedFS) OpenAppend(path string) (serve.File, error) {
	file, err := f.FS.OpenAppend(path)
	return f.wrap(file, err, path)
}

func (f *tracedFS) ReadFile(path string) ([]byte, error) {
	t0 := time.Now()
	b, err := f.FS.ReadFile(path)
	if tr := f.tr.Load(); tr.on() {
		if key := storeKey(path); key != "" {
			tr.Add(Span{Name: "serve.store_get", Key: key, Start: tr.At(t0), End: tr.At(time.Now())})
		}
	}
	return b, err
}

func (f *tracedFS) SyncDir(dir string) error {
	err := f.FS.SyncDir(dir)
	f.mu.Lock()
	var p *pendingPut
	if q := f.pending[dir]; len(q) > 0 {
		p = &q[0]
		f.pending[dir] = q[1:]
	}
	f.mu.Unlock()
	if tr := f.tr.Load(); p != nil && tr.on() {
		tr.Add(Span{Name: "serve.store_put", Key: p.key, Start: tr.At(p.start), End: tr.At(time.Now())})
	}
	return err
}

// gateway is an in-process seecd: a serve.Server behind serve.Handler
// on a loopback listener.
type gateway struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	served chan error
}

func startGateway(opts serve.Options, c *http.Client) (*gateway, error) {
	srv, err := serve.New(opts)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close(context.Background())
		return nil, err
	}
	g := &gateway{srv: srv, hs: &http.Server{Handler: serve.Handler(srv, nil)},
		url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { g.served <- g.hs.Serve(ln) }()
	// Ready once the API answers.
	resp, err := c.Get(g.url + "/api/v1/stats")
	if err == nil {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("stats: HTTP %d", resp.StatusCode)
		}
	}
	if err != nil {
		g.stop()
		return nil, err
	}
	return g, nil
}

// stop shuts the listener down, waits for the serving goroutine and
// closes the server gracefully.
func (g *gateway) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := g.hs.Shutdown(ctx)
	if serr := <-g.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := g.srv.Close(ctx); err == nil {
		err = cerr
	}
	return err
}

// jobResult is one job's client-side timeline and verdict.
type jobResult struct {
	timing             arrivalTiming
	postStart, postEnd time.Time
	waitEnd            time.Time
	hit                bool
	err                error
	// span ids, 0 when untraced
	jobID, postID, waitID int64
	resultIDs             map[string]int64
	results               map[string][2]time.Time
}

// client drives the gateway over at most clientConns connections.
type client struct {
	http   *http.Client
	url    string
	oracle map[string][]byte // expected payload by result key
}

func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: clientConns, MaxIdleConnsPerHost: clientConns, DisableCompression: true,
	}}
}

func (c *client) do(ctx context.Context, method, url string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// runJob submits sp, polls the job to a terminal state and fetches
// and checks every result. due is when the job was scheduled to go
// out; latency is measured from it.
func (c *client) runJob(ctx context.Context, tr *Tracer, parent, req int64, due time.Time, sp *seecdSpec) jobResult {
	r := jobResult{timing: arrivalTiming{due: due}}
	fail := func(err error) jobResult {
		r.err = err
		r.timing.done = time.Now()
		return r
	}
	r.jobID, r.postID, r.waitID = tr.ID(), tr.ID(), tr.ID()
	var sent atomic.Int64 // set from the transport's callback
	trace := &httptrace.ClientTrace{GotConn: func(httptrace.GotConnInfo) { sent.Store(time.Now().UnixNano()) }}
	req0, err := http.NewRequestWithContext(httptrace.WithClientTrace(ctx, trace), http.MethodPost,
		c.url+"/api/v1/jobs", bytes.NewReader(sp.raw))
	if err != nil {
		return fail(err)
	}
	r.postStart = time.Now()
	resp, err := c.http.Do(req0)
	if err != nil {
		return fail(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	r.postEnd = time.Now()
	r.timing.sent = r.postStart
	if ns := sent.Load(); ns != 0 {
		r.timing.sent = time.Unix(0, ns)
	}
	if err != nil {
		return fail(err)
	}
	if resp.StatusCode != http.StatusAccepted {
		return fail(fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(body)))
	}
	var st serve.JobStatus
	if err := json.Unmarshal(body, &st); err != nil {
		return fail(fmt.Errorf("submit: %w", err))
	}
	for {
		if st.State == serve.JobDone || st.State == serve.JobFailed || st.State == serve.JobCancelled {
			break
		}
		select {
		case <-ctx.Done():
			return fail(ctx.Err())
		case <-time.After(pollEvery):
		}
		code, b, err := c.do(ctx, http.MethodGet, c.url+"/api/v1/jobs/"+st.ID, nil)
		if err != nil {
			return fail(err)
		}
		if code != http.StatusOK {
			return fail(fmt.Errorf("poll: HTTP %d", code))
		}
		if err := json.Unmarshal(b, &st); err != nil {
			return fail(fmt.Errorf("poll: %w", err))
		}
	}
	r.waitEnd = time.Now()
	if st.State != serve.JobDone {
		return fail(fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error))
	}
	if len(st.Runs) != len(sp.keys) {
		return fail(fmt.Errorf("job %s has %d runs, want %d", st.ID, len(st.Runs), len(sp.keys)))
	}
	r.hit = true
	r.resultIDs = map[string]int64{}
	r.results = map[string][2]time.Time{}
	for i, run := range st.Runs {
		r.hit = r.hit && run.Cached
		if run.Key != sp.keys[i] {
			return fail(fmt.Errorf("job %s run %d key %s, want %s", st.ID, i, run.Key, sp.keys[i]))
		}
		t0 := time.Now()
		code, b, err := c.do(ctx, http.MethodGet, c.url+"/api/v1/results/"+run.Key, nil)
		if err != nil {
			return fail(err)
		}
		r.results[run.Key] = [2]time.Time{t0, time.Now()}
		r.resultIDs[run.Key] = tr.ID()
		if code != http.StatusOK {
			return fail(fmt.Errorf("result %s: HTTP %d", run.Key[:12], code))
		}
		if want := c.oracle[run.Key]; !bytes.Equal(b, want) {
			return fail(fmt.Errorf("result %s differs from the direct seec.RunSynthetic payload", run.Key[:12]))
		}
	}
	r.timing.done = time.Now()
	if tr.on() {
		tr.Add(Span{ID: r.jobID, Parent: parent, Name: "seecd.job", Req: req, Start: tr.At(due), End: tr.At(r.timing.done)})
		tr.Add(Span{Parent: r.jobID, Name: "loadgen.late", Req: req, Start: tr.At(due), End: tr.At(r.timing.sent)})
		tr.Add(Span{ID: r.postID, Parent: r.jobID, Name: "http.post", Req: req, Start: tr.At(r.timing.sent), End: tr.At(r.postEnd)})
		tr.Add(Span{ID: r.waitID, Parent: r.jobID, Name: "serve.job", Req: req, Start: tr.At(r.postEnd), End: tr.At(r.waitEnd)})
		for k, iv := range r.results {
			tr.Add(Span{ID: r.resultIDs[k], Parent: r.jobID, Name: "http.result", Req: req, Key: k, Start: tr.At(iv[0]), End: tr.At(iv[1])})
		}
	}
	return r
}

// closedLoop runs specs to completion over clientConns workers, each
// sending its next job when the previous one is done.
func (c *client) closedLoop(ctx context.Context, tr *Tracer, specs []*seecdSpec) []jobResult {
	out := make([]jobResult, len(specs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < clientConns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(specs) {
					return
				}
				out[i] = c.runJob(ctx, tr, 0, int64(i+1), time.Now(), specs[i])
			}
		}()
	}
	wg.Wait()
	return out
}

// runSeecdOpen drives an in-process gateway with an open loop: seeded
// Poisson arrivals at a fixed rate, each job POSTed, polled to a
// terminal state and its results fetched. A prefill phase first
// computes the specs that later arrivals repeat; the timed window then
// starts after the gateway restarts over the prefilled state.
func runSeecdOpen(e *env) (*outcome, error) {
	out := newOutcome()
	window := time.Duration(e.seconds * float64(time.Second))
	n := int(math.Round(openLoopRate * e.seconds))
	r := rand.New(rand.NewSource(e.seed))
	nHot := int(math.Round(hotShare * float64(n)))
	hot := make([]*seecdSpec, hotSpecs)
	cold := make([]*seecdSpec, n-nHot)
	for i := range hot {
		sp, err := makeSpec(i, e.seed)
		if err != nil {
			return nil, err
		}
		hot[i] = sp
	}
	for i, j := range r.Perm(len(cold)) {
		sp, err := makeSpec(hotSpecs+j, e.seed)
		if err != nil {
			return nil, err
		}
		cold[i] = sp
	}
	// The arrival sequence: nHot repeats of random prefilled specs
	// interleaved at random with the cold specs, in order.
	isHot := make([]bool, n)
	for i := 0; i < nHot; i++ {
		isHot[i] = true
	}
	r.Shuffle(n, func(i, j int) { isHot[i], isHot[j] = isHot[j], isHot[i] })
	arrivals := make([]*seecdSpec, n)
	for i, ci := 0, 0; i < n; i++ {
		if isHot[i] {
			arrivals[i] = hot[r.Intn(hotSpecs)]
		} else {
			arrivals[i] = cold[ci]
			ci++
		}
	}
	dues := openLoopArrivals(r.Float64, n, window)

	orc, want, err := computeOracle(hot, cold)
	if err != nil {
		return nil, err
	}
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	seam := &simSeam{}
	opts := serve.Options{Dir: filepath.Join(e.work, "seecd"), Workers: sweepWorkers,
		QueueDepth: 4 * n, RunSynthetic: seam.run}
	tr := e.tracer
	var fs *tracedFS
	if tr != nil {
		fs = &tracedFS{FS: serve.OSFS{}, pending: map[string][]pendingPut{}}
		opts.FS = fs
	}
	check := func(phase string, res []jobResult) {
		for i, jr := range res {
			out.attempted++
			if jr.err != nil {
				out.fail("seecd-open %s job %d: %v", phase, i, jr.err)
			}
		}
	}
	checkCounts := func(phase string, got, want workCounts) {
		out.attempted++
		if got != want {
			out.fail("seecd-open %s: gateway work counts %+v differ from the direct runs %+v", phase, got, want)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), window+90*time.Second)
	defer cancel()

	// A cold sweep: a fresh gateway over an empty state directory
	// computes every spec the timed arrivals will repeat. The first
	// sweep's directory is the state the timed window starts from; the
	// others are scratch and removed after their sweep.
	cl := &client{http: hc, oracle: orc}
	var sweeps []float64
	coldSweep := func(i int) error {
		o := opts
		if i > 0 {
			o.Dir = filepath.Join(e.work, fmt.Sprintf("seecd-cold%d", i))
			defer os.RemoveAll(o.Dir)
		}
		g, err := startGateway(o, hc)
		if err != nil {
			return err
		}
		cl.url = g.url
		t0 := time.Now()
		pre := cl.closedLoop(ctx, nil, hot)
		sweeps = append(sweeps, secs(time.Since(t0)))
		phase := fmt.Sprintf("cold sweep %d", i)
		check(phase, pre)
		preCounts, _, _ := seam.take()
		checkCounts(phase, preCounts, want[0])
		return g.stop()
	}
	for i := 0; i < coldSweeps/2; i++ {
		if err := coldSweep(i); err != nil {
			return nil, err
		}
	}

	// Set-up: restart over the prefilled state (journal replay, store
	// open, listener) until the API answers.
	var rounds []float64
	var g *gateway
	for i := 0; i < restarts; i++ {
		t := time.Now()
		if g, err = startGateway(opts, hc); err != nil {
			return nil, err
		}
		rounds = append(rounds, secs(time.Since(t)))
		if i < restarts-1 {
			if err := g.stop(); err != nil {
				return nil, err
			}
		}
	}
	out.e2e["setup_s"] = median(rounds)
	cl.url = g.url

	// The timed window.
	st0 := g.srv.Stats()
	if fs != nil {
		fs.tr.Store(tr)
	}
	seam.tr.Store(tr)
	root := tr.ID()
	res := make([]jobResult, n)
	var wg sync.WaitGroup
	start := time.Now().Add(10 * time.Millisecond)
	for i, d := range dues {
		due := start.Add(d)
		time.Sleep(time.Until(due))
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			res[i] = cl.runJob(ctx, tr, root, int64(i+1), due, arrivals[i])
		}(i, due)
	}
	wg.Wait()
	end := start
	for _, jr := range res {
		if jr.timing.done.After(end) {
			end = jr.timing.done
		}
	}
	tr.Add(Span{ID: root, Name: "seecd.window", Start: tr.At(start), End: tr.At(end)})
	seam.tr.Store(nil)
	if fs != nil {
		fs.tr.Store(nil)
	}
	st1 := g.srv.Stats()
	check("window", res)
	out.e2e["retained_heap_mb"] = retainedHeapMB()
	winCounts, busy, simMS := seam.take()
	checkCounts("window", winCounts, want[1])

	var lat, hitLat, missLat, ack, late []float64
	ok := 0
	for _, jr := range res {
		if jr.err != nil {
			lat = append(lat, math.Inf(1))
			continue
		}
		ok++
		l := ms(jr.timing.latency())
		lat = append(lat, l)
		if jr.hit {
			hitLat = append(hitLat, l)
		} else {
			missLat = append(missLat, l)
		}
		ack = append(ack, ms(jr.postEnd.Sub(jr.timing.sent)))
		late = append(late, ms(jr.timing.late()))
	}
	out.e2e["job_p50_ms"], _ = percentile(lat, 50)
	p90, enough := percentile(lat, 90)
	if !enough {
		out.fail("seecd-open: only %d jobs, too few for a p90", len(lat))
	}
	out.layer["job_p90_ms"] = p90
	out.e2e["jobs_per_s"] = float64(ok) / end.Sub(start).Seconds()
	out.e2e["sim_flit_hops_per_s"] = float64(winCounts.FlitHops) / busy.Seconds()

	pct(out, "serve.job_p99_ms", lat, 99)
	pct(out, "http.ack_ms.p50", ack, 50)
	pct(out, "loadgen.late_ms.p99", late, 99)
	pct(out, "serve.hit_job_p50_ms", hitLat, 50)
	pct(out, "serve.miss_job_p50_ms", missLat, 50)
	pct(out, "serve.sim_ms.p50", simMS, 50)
	if d := (st1.CacheHits - st0.CacheHits) + (st1.CacheMisses - st0.CacheMisses); d > 0 {
		out.layer["serve.cache_hit_ratio"] = float64(st1.CacheHits-st0.CacheHits) / float64(d)
	}
	winCounts.into(out.layer)

	if tr != nil {
		gatewayLayers(out, tr, root, res)
		var ratio float64
		ratio, err = overheadAB(ctx, cl, seam, fs, hot, r)
		out.layer["trace.overhead_ratio"] = ratio
	}
	if serr := g.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return nil, err
	}
	// The other half of the cold sweeps, so that their median spans the
	// whole run rather than its first seconds.
	for i := coldSweeps / 2; i < coldSweeps; i++ {
		if err := coldSweep(i); err != nil {
			return nil, err
		}
	}
	out.e2e["sweep_cold_s"] = median(sweeps)
	return out, nil
}

// pct stores a percentile metric when it is reportable and says so on
// standard error when it is not.
func pct(out *outcome, name string, xs []float64, q float64) {
	v, ok := percentile(xs, q)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: %s not reported: %d samples, fewer than %d beyond it\n", name, len(xs), minBeyond)
		return
	}
	out.layer[name] = v
}

// gatewayLayers attaches every gateway span recorded during the window
// to the job it served and derives the gateway's per-layer metrics.
// A journal fsync belongs to the POST whose round trip contains it; a
// simulation or store access belongs to the job that carries its key
// and was in the server at that moment, or to the result fetch that
// read it.
func gatewayLayers(out *outcome, tr *Tracer, root int64, res []jobResult) {
	type owner struct {
		lo, hi time.Time
		id     int64
	}
	byKey := map[string][]owner{}
	var posts []owner
	for _, jr := range res {
		if jr.err != nil || jr.jobID == 0 {
			continue
		}
		posts = append(posts, owner{jr.timing.sent, jr.postEnd, jr.postID})
		for k, iv := range jr.results {
			byKey[k] = append(byKey[k], owner{iv[0], iv[1], jr.resultIDs[k]}, owner{jr.postStart, jr.waitEnd, jr.waitID})
		}
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	within := func(o owner, s Span) bool { return s.Start >= tr.At(o.lo) && s.Start <= tr.At(o.hi) }
	postSync := map[int64]Span{}
	firstServed := map[int64]int64{} // serve.job span id -> first child start
	var walMS, putMS, getMS []float64
	for i := range tr.spans {
		s := &tr.spans[i]
		if s.Parent != 0 || s.ID == root {
			continue
		}
		s.Parent = root
		switch s.Name {
		case "serve.wal_sync":
			walMS = append(walMS, float64(s.dur())/1e6)
			for _, p := range posts {
				if _, taken := postSync[p.id]; !taken && within(p, *s) {
					s.Parent = p.id
					postSync[p.id] = *s
					break
				}
			}
		case "serve.sim", "serve.store_get", "serve.store_put":
			if s.Name == "serve.store_put" {
				putMS = append(putMS, float64(s.dur())/1e6)
			} else if s.Name == "serve.store_get" {
				getMS = append(getMS, float64(s.dur())/1e6)
			}
			for _, o := range byKey[s.Key] {
				if within(o, *s) {
					s.Parent = o.id
					if f, seen := firstServed[o.id]; !seen || s.Start < f {
						firstServed[o.id] = s.Start
					}
					break
				}
			}
		}
	}
	var queueMS, httpSelf []float64
	for _, jr := range res {
		if jr.err != nil || jr.jobID == 0 {
			continue
		}
		// A job joins the queue right after its journal fsync.
		if f, ok := firstServed[jr.waitID]; ok {
			if sync, ok := postSync[jr.postID]; ok {
				queueMS = append(queueMS, math.Max(0, float64(f-sync.End)/1e6))
			}
		}
		post := Span{Start: tr.At(jr.timing.sent), End: tr.At(jr.postEnd)}
		var kids []Span
		if s, ok := postSync[jr.postID]; ok {
			kids = append(kids, s)
		}
		httpSelf = append(httpSelf, float64(selfTime(post, kids))/1e6)
	}
	pct(out, "serve.wal_sync_ms.p50", walMS, 50)
	pct(out, "serve.wal_sync_ms.p99", walMS, 99)
	pct(out, "serve.store_put_ms.p50", putMS, 50)
	pct(out, "serve.store_get_ms.p50", getMS, 50)
	pct(out, "serve.queue_wait_ms.p50", queueMS, 50)
	pct(out, "serve.queue_wait_ms.p99", queueMS, 99)
	pct(out, "http.self_ms.p50", httpSelf, 50)
	if len(posts) > 0 {
		out.layer["serve.wal_syncs_per_job"] = float64(len(walMS)) / float64(len(posts))
	}
}

// overheadAB measures what tracing costs end to end: alternating
// closed-loop bursts of repeat jobs (served from the store, so the
// gateway's own path dominates) with every wrapper recording into a
// scratch tracer, and with none recording. It returns the ratio of the
// median traced burst to the median untraced burst.
func overheadAB(ctx context.Context, cl *client, seam *simSeam, fs *tracedFS, hot []*seecdSpec, r *rand.Rand) (float64, error) {
	var traced, plain []float64
	for round := 0; round < abRounds; round++ {
		for _, on := range []bool{round%2 == 0, round%2 != 0} {
			specs := make([]*seecdSpec, abJobs)
			for i := range specs {
				specs[i] = hot[r.Intn(len(hot))]
			}
			var tr *Tracer
			if on {
				tr = NewTracer()
			}
			fs.tr.Store(tr)
			seam.tr.Store(tr)
			t := time.Now()
			res := cl.closedLoop(ctx, tr, specs)
			wall := secs(time.Since(t))
			fs.tr.Store(nil)
			seam.tr.Store(nil)
			for _, jr := range res {
				if jr.err != nil {
					return 0, fmt.Errorf("overhead burst: %w", jr.err)
				}
			}
			if on {
				traced = append(traced, wall)
			} else {
				plain = append(plain, wall)
			}
		}
	}
	seam.take()
	return median(traced) / median(plain), nil
}
