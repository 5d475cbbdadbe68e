package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"uvmsim/internal/cachetier"
	"uvmsim/internal/dist"
	"uvmsim/internal/govern"
	"uvmsim/internal/obs"
	"uvmsim/internal/serve"
	"uvmsim/internal/sweep"
	"uvmsim/internal/telemetry"
)

// The fleet shape: one coordinator, fleetWorkers workers (the closed
// loop's clients) and fleetNodes uvmserved nodes, all on loopback in
// this process. After the cold pass, fleetWarmPasses warm passes re-run
// the same cells as tier hits.
const (
	fleetWorkers    = 2
	fleetNodes      = 2
	fleetWarmPasses = 5
)

// fleetTimes collects the fleet's per-cell and per-request timings.
type fleetTimes struct {
	mu         sync.Mutex
	class      string // "miss" (cold pass), "hit" (warm pass) or "" (warm-up: not recorded)
	miss, hit  []float64
	leaseMs    []float64
	completeMs []float64
	lookupMs   []float64 // warm passes: tier lookups answered from cache
	nodeMs     map[string][]float64
	nodeByKey  map[string]time.Duration // trace ID + path -> node handler time
	rtByKey    map[string]time.Duration // trace ID + path -> tier client round trip
	done       chan struct{}            // one send per completed cell of the current pass
	failed     int
}

func newFleetTimes() *fleetTimes {
	return &fleetTimes{nodeMs: map[string][]float64{}, nodeByKey: map[string]time.Duration{}, rtByKey: map[string]time.Duration{}}
}

// waitMs is, per tier request the node also saw, the client round trip
// minus the node's handler time: time spent in transport and queues.
func (ft *fleetTimes) waitMs() []float64 {
	ft.mu.Lock()
	defer ft.mu.Unlock()
	var out []float64
	for k, rt := range ft.rtByKey {
		if h, ok := ft.nodeByKey[k]; ok {
			out = append(out, ms(rt-h))
		}
	}
	return out
}

// timedBody reports when the caller has read and closed a response.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func(end time.Time)
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(func() { b.done(time.Now()) })
	return err
}

// workerClock is one worker's client-side view of its cells: a timing
// RoundTripper on the worker's coordinator traffic plus a wrapper
// around its runner. A worker holds one lease at a time, so the lease
// that preceded a runner call is the one that granted the cell.
type workerClock struct {
	ft   *fleetTimes
	tr   *tracer
	base http.RoundTripper

	mu                   sync.Mutex
	leaseStart, leaseEnd time.Time
	cur                  *cellClock
}

type cellClock struct {
	trace                  string
	lookupID               int64
	grant, leaseEnd        time.Time
	lookupStart, lookupEnd time.Time
	completed              bool
}

// lookupKey carries a tier lookup's span ID in the request context to
// the tier's RoundTripper, which parents the lookup's HTTP spans on it.
type lookupKey struct{}

func (w *workerClock) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := w.base.RoundTrip(r)
	if err != nil {
		return resp, err
	}
	switch r.URL.Path {
	case "/v1/lease":
		resp.Body = &timedBody{ReadCloser: resp.Body, done: func(end time.Time) {
			w.mu.Lock()
			w.leaseStart, w.leaseEnd = start, end
			w.mu.Unlock()
		}}
	case "/v1/complete":
		resp.Body = &timedBody{ReadCloser: resp.Body, done: func(end time.Time) { w.completed(start, end) }}
	}
	return resp, nil
}

func (w *workerClock) completed(start, end time.Time) {
	w.mu.Lock()
	c := w.cur
	w.cur = nil
	w.mu.Unlock()
	if c == nil {
		return
	}
	ft := w.ft
	ft.mu.Lock()
	switch ft.class {
	case "miss":
		ft.miss = append(ft.miss, ms(end.Sub(c.grant)))
	case "hit":
		ft.hit = append(ft.hit, ms(end.Sub(c.grant)))
		ft.lookupMs = append(ft.lookupMs, ms(c.lookupEnd.Sub(c.lookupStart)))
	}
	if ft.class != "" {
		ft.leaseMs = append(ft.leaseMs, ms(c.leaseEnd.Sub(c.grant)))
		ft.completeMs = append(ft.completeMs, ms(end.Sub(start)))
	}
	if !c.completed {
		ft.failed++
	}
	done := ft.done
	ft.mu.Unlock()
	if w.tr != nil {
		id := w.tr.id()
		w.tr.add(0, id, c.trace, "dist.lease", c.grant, c.leaseEnd)
		w.tr.add(c.lookupID, id, c.trace, "cachetier.lookup", c.lookupStart, c.lookupEnd)
		w.tr.add(0, id, c.trace, "dist.complete", start, end)
		w.tr.add(id, 0, c.trace, "fleet.cell", c.grant, end)
	}
	select {
	case done <- struct{}{}:
	default:
	}
}

// runner wraps the worker's runner to mark the granted cell.
func (w *workerClock) runner(inner dist.Runner) dist.Runner {
	return func(ctx context.Context, cs dist.CellSpec) (govern.State, []string, string) {
		w.mu.Lock()
		c := &cellClock{trace: telemetry.TraceID(ctx), lookupID: w.tr.id(), grant: w.leaseStart, leaseEnd: w.leaseEnd}
		w.mu.Unlock()
		c.lookupStart = time.Now()
		st, row, msg := inner(context.WithValue(ctx, lookupKey{}, c.lookupID), cs)
		c.lookupEnd = time.Now()
		c.completed = st == govern.StateCompleted
		w.mu.Lock()
		w.cur = c
		w.mu.Unlock()
		return st, row, msg
	}
}

// tierClock times the cache tier's requests to the nodes (traced
// rounds only).
type tierClock struct {
	ft   *fleetTimes
	tr   *tracer
	base http.RoundTripper
}

func (t *tierClock) RoundTrip(r *http.Request) (*http.Response, error) {
	start := time.Now()
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		return resp, err
	}
	trace := r.Header.Get(telemetry.HeaderTraceID)
	parent, _ := r.Context().Value(lookupKey{}).(int64)
	name := "http" + strings.ReplaceAll(strings.TrimPrefix(r.URL.Path, "/v1"), "/", ".")
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func(end time.Time) {
		t.ft.mu.Lock()
		t.ft.rtByKey[trace+r.URL.Path] = end.Sub(start)
		t.ft.mu.Unlock()
		t.tr.add(0, parent, trace, name, start, end)
	}}
	return resp, nil
}

// nodeClock wraps a node's handler to time each request at the node
// (traced rounds only).
func nodeClock(ft *fleetTimes, tr *tracer, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, r)
		end := time.Now()
		trace := r.Header.Get(telemetry.HeaderTraceID)
		class := strings.TrimPrefix(r.URL.Path, "/v1/")
		if src := w.Header().Get("X-Uvmsim-Cache"); src != "" {
			class += "/" + src
		}
		ft.mu.Lock()
		ft.nodeMs[class] = append(ft.nodeMs[class], ms(end.Sub(start)))
		ft.nodeByKey[trace+r.URL.Path] = end.Sub(start)
		ft.mu.Unlock()
		tr.add(0, 0, trace, "serve."+strings.ReplaceAll(class, "/", "."), start, end)
	})
}

// listen serves h on a fresh loopback port until stop is called.
func listen(h http.Handler) (url string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns http.ErrServerClosed once stop closes it
	}()
	return "http://" + ln.Addr().String(), func() { srv.Close(); <-served }, nil
}

// fleet is one brought-up fleet: nodes, tier, coordinator listener.
type fleet struct {
	ft     *fleetTimes
	nodes  []*serve.Server
	stops  []func()
	tier   *cachetier.Tier
	clocks []*workerClock
	tport  *http.Transport
	counts map[string]uint64 // coordinator counters summed over body passes
}

func startFleet(ft *fleetTimes, tr *tracer) (*fleet, error) {
	f := &fleet{ft: ft, counts: map[string]uint64{},
		tport: &http.Transport{MaxIdleConnsPerHost: 2 * fleetWorkers, IdleConnTimeout: time.Minute}}
	var urls []string
	for i := 0; i < fleetNodes; i++ {
		s := serve.New(serve.Config{})
		var h http.Handler = s.Handler()
		if tr != nil {
			h = nodeClock(ft, tr, h)
		}
		url, stop, err := listen(h)
		if err != nil {
			s.Close()
			f.close()
			return nil, err
		}
		f.nodes = append(f.nodes, s)
		f.stops = append(f.stops, func() { stop(); s.Close() })
		urls = append(urls, url)
	}
	var tierRT http.RoundTripper = f.tport
	if tr != nil {
		tierRT = &tierClock{ft: ft, tr: tr, base: f.tport}
	}
	f.tier = cachetier.New(cachetier.Config{Nodes: urls, ProbeInterval: -1,
		HTTPClient: &http.Client{Transport: tierRT, Timeout: 30 * time.Second}})
	for i := 0; i < fleetWorkers; i++ {
		f.clocks = append(f.clocks, &workerClock{ft: ft, tr: tr, base: f.tport})
	}
	return f, nil
}

func (f *fleet) close() {
	for i := len(f.stops) - 1; i >= 0; i-- {
		f.stops[i]()
	}
	f.tport.CloseIdleConnections()
}

// pass runs every spec as one distributed sweep and returns the merged
// tables as CSV. class labels the cells' timings; the cold pass (and
// the warm-up) write-through fill the tier, warm passes only read.
func (f *fleet) pass(ctx context.Context, specs []*sweep.Spec, class string, body bool) ([]byte, error) {
	var buf bytes.Buffer
	for _, s := range specs {
		cells, err := s.Configs()
		if err != nil {
			return nil, err
		}
		cfg := dist.CoordinatorConfig{}
		if class != "hit" {
			cfg.CacheFill = f.tier.Fill
		}
		co, err := dist.NewCoordinator(s, cfg)
		if err != nil {
			return nil, err
		}
		done := make(chan struct{}, len(cells))
		f.ft.mu.Lock()
		f.ft.class, f.ft.done = class, done
		f.ft.mu.Unlock()
		// Each coordinator gets its own listener, closed with it: a
		// worker stopped mid-request must not lease from the next one.
		url, stop, err := listen(co.Handler())
		if err != nil {
			co.Close()
			return nil, err
		}

		wctx, cancel := context.WithCancel(ctx)
		var wg sync.WaitGroup
		werrs := make([]error, fleetWorkers)
		for i, clk := range f.clocks {
			w := dist.NewWorker(dist.WorkerConfig{
				Coordinator: url,
				Name:        fmt.Sprintf("w%d", i),
				Runner:      clk.runner(f.tier.Runner(dist.LocalRunner)),
				HTTPClient:  &http.Client{Transport: clk, Timeout: 30 * time.Second},
			})
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				werrs[i] = w.Run(wctx)
			}(i)
		}
		res, err := co.Wait(ctx)
		// The coordinator settles a cell before its worker has read the
		// completion reply; wait for every reply before stopping the
		// workers, so no cell's timing is cut short.
		var werr error
		for i := 0; i < len(cells) && err == nil; i++ {
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				werr = errors.New("fleet: a completion reply never arrived")
			}
			if werr != nil {
				break
			}
		}
		cancel()
		wg.Wait()
		stop()
		for _, e := range werrs {
			if e != nil && !errors.Is(e, context.Canceled) {
				werr = errors.Join(werr, e)
			}
		}
		if body {
			for _, smp := range co.Samples() {
				if smp.Kind == obs.KindCounter {
					f.counts[smp.Name] += smp.Value
				}
			}
		}
		co.Close()
		if err = errors.Join(err, werr); err != nil {
			return nil, fmt.Errorf("fleet sweep of %s: %w", s.Workload, err)
		}
		for _, st := range res.Statuses {
			if st.State != govern.StateCompleted {
				return nil, fmt.Errorf("fleet: cell %s ended %q: %s", st.Label, st.State, st.Err)
			}
		}
		if err := res.Table.WriteCSV(&buf); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// layerCounts reads the tier's and the nodes' counters.
func (f *fleet) layerCounts() map[string]uint64 {
	out := map[string]uint64{}
	for _, smp := range f.tier.Samples() {
		out[smp.Name] += smp.Value
	}
	for _, s := range f.nodes {
		st := s.Cache().Stats()
		out["serve.cache_hits"] += st.Hits
		out["serve.cache_misses"] += st.Misses
		out["serve.coalesced"] += st.Coalesced
		out["serve.rejected"] += scrapeCounter(s.Handler(), "uvmserved_rejected_total")
	}
	return out
}

// scrapeCounter reads one unlabelled counter from a node's /metrics.
func scrapeCounter(h http.Handler, name string) uint64 {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), name+" "); ok {
			n, _ := strconv.ParseUint(strings.TrimSpace(v), 10, 64)
			return n
		}
	}
	return 0
}

// fleetRound is the outcome of one fleet set-up plus one run of the
// fleet's fixed body.
type fleetRound struct {
	csvs   [][]byte          // merged tables of every body pass
	counts map[string]uint64 // exact body counts
}

func runFleetRound(ctx context.Context, warmup *sweep.Spec, specs []*sweep.Spec, ft *fleetTimes, tr *tracer) (*fleetRound, error) {
	f, err := startFleet(ft, tr)
	if err != nil {
		return nil, err
	}
	defer f.close()
	if _, err := f.pass(ctx, []*sweep.Spec{warmup}, "", false); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	r := &fleetRound{}
	before := f.layerCounts()
	csv, err := f.pass(ctx, specs, "miss", true)
	if err != nil {
		return nil, err
	}
	r.csvs = append(r.csvs, csv)
	for i := 0; i < fleetWarmPasses; i++ {
		if csv, err = f.pass(ctx, specs, "hit", true); err != nil {
			return nil, err
		}
		r.csvs = append(r.csvs, csv)
	}
	r.counts = f.counts
	for k, v := range f.layerCounts() {
		r.counts[k] += v - before[k]
	}
	return r, nil
}
