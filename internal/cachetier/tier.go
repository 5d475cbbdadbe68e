package cachetier

import (
	"context"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"time"

	"uvmsim/internal/confighash"
	"uvmsim/internal/dist"
	"uvmsim/internal/govern"
	"uvmsim/internal/obs"
	"uvmsim/internal/serve"
	"uvmsim/internal/serve/client"
	"uvmsim/internal/telemetry"
)

// Tier metric names, exposed via Samples so coordinator /metrics (and
// tests) can observe routing, failover, and breaker behaviour.
const (
	MetricLookups         = "cachetier_lookups_total"
	MetricHits            = "cachetier_hits_total"
	MetricMisses          = "cachetier_misses_total" // tier had no answer; caller simulates locally
	MetricFailovers       = "cachetier_failovers_total"
	MetricNodeFailures    = "cachetier_node_failures_total"
	MetricBreakerOpen     = "cachetier_breaker_open_total"
	MetricBreakerHalfOpen = "cachetier_breaker_halfopen_total"
	MetricBreakerClose    = "cachetier_breaker_close_total"
	MetricFills           = "cachetier_fills_total"
	MetricFillErrors      = "cachetier_fill_errors_total"
	MetricFillsSkipped    = "cachetier_fills_skipped_total"
	MetricProbes          = "cachetier_probes_total"
	MetricProbeFailures   = "cachetier_probe_failures_total"
)

// Config describes one tier client. Zero fields select the defaults
// noted on each field.
type Config struct {
	// Nodes are the uvmserved base URLs forming the tier. Required.
	Nodes []string
	// Replicas is the virtual-node count per endpoint on the hash ring
	// (default DefaultReplicas).
	Replicas int
	// FailureThreshold consecutive failures open a node's breaker
	// (default DefaultFailureThreshold); OpenTimeout is the cool-off
	// before a half-open trial (default DefaultOpenTimeout).
	FailureThreshold int
	OpenTimeout      time.Duration
	// MaxFailover bounds how many ring successors are tried after the
	// owner on a read (default 1: the next ring node; negative tries
	// every node).
	MaxFailover int
	// LookupTimeout bounds one read against one node (default 15s). A
	// node slower than this is treated as failed — slow nodes degrade to
	// failover, never to a stalled sweep.
	LookupTimeout time.Duration
	// FillTimeout bounds one write-through fill (default 5s; fills never
	// simulate, so they are cheap).
	FillTimeout time.Duration
	// ProbeInterval spaces active /healthz probes per node (default 1s;
	// <0 disables active probing). ProbeTimeout bounds one probe
	// (default 2s).
	ProbeInterval time.Duration
	ProbeTimeout  time.Duration
	// Logger receives breaker transitions and routing decisions under
	// the fleet telemetry schema; nil logs nothing.
	Logger *slog.Logger
	// Flight, with FlightDir set, is dumped when any node's breaker
	// opens — the moments leading up to a node being declared dark are
	// exactly what a post-mortem wants.
	Flight    *telemetry.Flight
	FlightDir string
	// Now is the breaker clock (default time.Now); tests inject a fake.
	Now func() time.Time
	// HTTPClient overrides the per-node transport; when nil each node
	// gets a client bounded by LookupTimeout.
	HTTPClient *http.Client
}

func (c Config) withDefaults() Config {
	if c.Replicas <= 0 {
		c.Replicas = DefaultReplicas
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = DefaultFailureThreshold
	}
	if c.OpenTimeout <= 0 {
		c.OpenTimeout = DefaultOpenTimeout
	}
	if c.MaxFailover == 0 {
		c.MaxFailover = 1
	}
	if c.LookupTimeout <= 0 {
		c.LookupTimeout = 15 * time.Second
	}
	if c.FillTimeout <= 0 {
		c.FillTimeout = 5 * time.Second
	}
	if c.ProbeInterval == 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// node is one tier endpoint: its client and its breaker.
type node struct {
	url     string
	client  *client.Client
	breaker *Breaker
}

// Tier is the multi-endpoint cache client. All methods are
// goroutine-safe.
type Tier struct {
	cfg   Config
	nodes []*node
	ring  *Ring

	mu  sync.Mutex
	reg *obs.Registry

	proberWG sync.WaitGroup
}

// New assembles a tier over cfg.Nodes.
func New(cfg Config) *Tier {
	cfg = cfg.withDefaults()
	t := &Tier{cfg: cfg, reg: obs.NewRegistry()}
	for _, name := range []string{
		MetricLookups, MetricHits, MetricMisses, MetricFailovers, MetricNodeFailures,
		MetricBreakerOpen, MetricBreakerHalfOpen, MetricBreakerClose,
		MetricFills, MetricFillErrors, MetricFillsSkipped,
		MetricProbes, MetricProbeFailures,
	} {
		t.reg.Counter(name)
	}
	for _, u := range cfg.Nodes {
		u = strings.TrimRight(strings.TrimSpace(u), "/")
		if u == "" {
			continue
		}
		hc := cfg.HTTPClient
		if hc == nil {
			hc = &http.Client{Timeout: cfg.LookupTimeout}
		}
		t.nodes = append(t.nodes, &node{
			url:     u,
			client:  client.New(u, hc),
			breaker: NewBreaker(cfg.FailureThreshold, cfg.OpenTimeout, cfg.Now),
		})
	}
	urls := make([]string, len(t.nodes))
	for i, n := range t.nodes {
		urls[i] = n.url
	}
	t.ring = NewRing(urls, cfg.Replicas)
	return t
}

// Nodes returns the tier's normalized node URLs in ring index order.
func (t *Tier) Nodes() []string {
	out := make([]string, len(t.nodes))
	for i, n := range t.nodes {
		out[i] = n.url
	}
	return out
}

// Samples snapshots the tier's counters (name-sorted, obs conventions).
func (t *Tier) Samples() []obs.Sample {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reg.Samples()
}

func (t *Tier) count(name string) {
	t.mu.Lock()
	t.reg.Counter(name).Inc(1)
	t.mu.Unlock()
}

// counterGet reads one counter (tests and gates).
func (t *Tier) counterGet(name string) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.reg.Counter(name).Get()
}

// transitioned records a breaker state change: counter, structured log
// under ctx's trace, and — on open — a flight-recorder dump, because a
// node going dark is a fleet incident worth a post-mortem window.
func (t *Tier) transitioned(ctx context.Context, n *node, tr *Transition) {
	if tr == nil {
		return
	}
	switch tr.To {
	case BreakerOpen:
		t.count(MetricBreakerOpen)
	case BreakerHalfOpen:
		t.count(MetricBreakerHalfOpen)
	case BreakerClosed:
		t.count(MetricBreakerClose)
	}
	if t.cfg.Logger != nil {
		level := slog.LevelInfo
		if tr.To == BreakerOpen {
			level = slog.LevelWarn
		}
		t.cfg.Logger.LogAttrs(ctx, level, "breaker "+tr.To.String(),
			slog.String(telemetry.KeyNode, n.url),
			slog.String("from", tr.From.String()),
			slog.String("to", tr.To.String()))
	}
	// Only a fresh closed→open trip is an incident worth a flight dump;
	// a persistent partition re-trips half-open→open on every probe
	// cycle, and dumping each flap would flood the dump directory.
	if tr.From == BreakerClosed && tr.To == BreakerOpen && t.cfg.Flight != nil && t.cfg.FlightDir != "" {
		fl, dir, lg := t.cfg.Flight, t.cfg.FlightDir, t.cfg.Logger
		go func() {
			if path, err := fl.DumpToFile(dir, "breaker_open"); err == nil && lg != nil {
				lg.Warn("flight recorder dumped",
					slog.String("reason", "breaker_open"), slog.String("path", path))
			}
		}()
	}
}

// Lookup consults the tier for one cell: route to the confighash owner,
// fail over along the ring while nodes are open or failing, and return
// the completed row when any node answers. ok=false means the tier had
// no usable answer — server trouble, budget-tripped verdicts, or a cell
// the wire form cannot express — and the caller must simulate locally.
func (t *Tier) Lookup(ctx context.Context, cs dist.CellSpec) (row []string, nodeURL string, ok bool) {
	if len(t.nodes) == 0 {
		return nil, "", false
	}
	req, exact := serve.SimRequestOf(cs)
	if !exact {
		return nil, "", false
	}
	key := cs.Hash()
	t.count(MetricLookups)
	tried := 0
	limit := t.cfg.MaxFailover + 1 // owner plus failovers
	if t.cfg.MaxFailover < 0 {
		limit = len(t.nodes)
	}
	for i, idx := range t.ring.Preference(key) {
		if tried >= limit {
			break
		}
		n := t.nodes[idx]
		allowed, tr := n.breaker.Allow()
		t.transitioned(ctx, n, tr)
		if !allowed {
			if i == 0 {
				t.count(MetricFailovers) // the owner was dark; reads walk the ring
			}
			continue
		}
		tried++
		if i > 0 {
			t.count(MetricFailovers)
		}
		row, verdict := t.lookupOne(ctx, n, req)
		switch verdict {
		case nodeHit:
			t.transitioned(ctx, n, n.breaker.Success())
			t.count(MetricHits)
			if t.cfg.Logger != nil {
				t.cfg.Logger.LogAttrs(ctx, slog.LevelInfo, "cell served from cache tier",
					slog.String(telemetry.KeyConfigHash, key),
					slog.String(telemetry.KeyNode, n.url))
			}
			return row, n.url, true
		case nodeMiss:
			// The node is healthy but has no usable answer (e.g. a
			// deterministic budget trip): the local engine will reproduce
			// the same verdict, so stop failing over.
			t.transitioned(ctx, n, n.breaker.Success())
			t.count(MetricMisses)
			return nil, "", false
		default: // nodeFailed
			t.count(MetricNodeFailures)
			t.transitioned(ctx, n, n.breaker.Failure())
		}
	}
	t.count(MetricMisses)
	return nil, "", false
}

// nodeVerdict classifies one exchange with one node.
type nodeVerdict int

const (
	nodeHit    nodeVerdict = iota // completed row returned
	nodeMiss                      // node healthy, no usable row
	nodeFailed                    // transport error, timeout, 5xx, corrupt body
)

// lookupOne performs one bounded read against one node.
func (t *Tier) lookupOne(ctx context.Context, n *node, req serve.SimRequest) ([]string, nodeVerdict) {
	rctx, cancel := context.WithTimeout(ctx, t.cfg.LookupTimeout)
	defer cancel()
	res, err := n.client.Sim(rctx, req)
	switch {
	case err != nil:
		// Distinguish "the caller is leaving" from "the node is sick": a
		// cancellation of the surrounding run must not charge the node.
		if ctx.Err() != nil {
			return nil, nodeMiss
		}
		return nil, nodeFailed
	case res.Status >= 500:
		return nil, nodeFailed
	case !res.OK():
		// 4xx (including 429 backpressure): the node answered coherently;
		// it just has nothing for us.
		return nil, nodeMiss
	}
	var resp serve.SimResponse
	if res.Decode(&resp) != nil {
		return nil, nodeFailed // 200 with a corrupt body is a node fault
	}
	if resp.Status != string(govern.StateCompleted) || len(resp.Row) == 0 {
		return nil, nodeMiss
	}
	return resp.Row, nodeHit
}

// Fill write-throughs one completed cell's row to its owner node. Fills
// are strictly best-effort: a dark owner (breaker open) skips, an error
// counts and feeds the breaker, and nothing is retried — the next sweep
// will fill again.
func (t *Tier) Fill(ctx context.Context, cs dist.CellSpec, row []string) error {
	if len(t.nodes) == 0 || len(row) == 0 {
		return nil
	}
	req, exact := serve.SimRequestOf(cs)
	if !exact {
		return nil
	}
	label := cs.Label()
	key := confighash.Sum(label)
	n := t.nodes[t.ring.Owner(key)]
	allowed, tr := n.breaker.Allow()
	t.transitioned(ctx, n, tr)
	if !allowed {
		t.count(MetricFillsSkipped)
		return nil
	}
	t.count(MetricFills)
	rctx, cancel := context.WithTimeout(ctx, t.cfg.FillTimeout)
	defer cancel()
	res, ferr := n.client.CacheFill(rctx, serve.CacheFillRequest{Sim: req, Label: label, Row: row})
	if ferr != nil || res.Status >= 500 {
		t.count(MetricFillErrors)
		t.transitioned(ctx, n, n.breaker.Failure())
		if ferr == nil {
			ferr = res.Err()
		}
		return ferr
	}
	t.transitioned(ctx, n, n.breaker.Success())
	if !res.OK() {
		// A 4xx rejection (label skew, malformed row) is a fill error but
		// not a node-health signal.
		t.count(MetricFillErrors)
		return res.Err()
	}
	if t.cfg.Logger != nil {
		t.cfg.Logger.LogAttrs(ctx, slog.LevelDebug, "cache tier fill",
			slog.String(telemetry.KeyConfigHash, key),
			slog.String(telemetry.KeyNode, n.url))
	}
	return nil
}

// Runner wraps the tier as a dist.Runner: consult the tier, fall back
// to the given runner (typically dist.LocalRunner) on any miss. The
// returned runner preserves the fallback's byte-identical contract
// because tier hits are the same deterministic rows the fallback would
// compute.
func (t *Tier) Runner(fallback dist.Runner) dist.Runner {
	return func(ctx context.Context, cs dist.CellSpec) (govern.State, []string, string) {
		if row, _, ok := t.Lookup(ctx, cs); ok {
			return govern.StateCompleted, row, ""
		}
		return fallback(ctx, cs)
	}
}

// StartProber launches the active health checker: every ProbeInterval
// each node is probed on /healthz (drain-aware readiness), feeding the
// same breaker passive traffic does — which is also how an open breaker
// recovers without live traffic: the probe takes the half-open trial.
// The prober stops when ctx cancels; StopProber waits for it.
func (t *Tier) StartProber(ctx context.Context) {
	if t.cfg.ProbeInterval < 0 || len(t.nodes) == 0 {
		return
	}
	t.proberWG.Add(1)
	go func() {
		defer t.proberWG.Done()
		tick := time.NewTicker(t.cfg.ProbeInterval)
		defer tick.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-tick.C:
				for _, n := range t.nodes {
					t.probe(ctx, n)
				}
			}
		}
	}()
}

// StopProber waits for the prober goroutine to exit (after its ctx is
// cancelled).
func (t *Tier) StopProber() { t.proberWG.Wait() }

// probe issues one health check against one node.
func (t *Tier) probe(ctx context.Context, n *node) {
	allowed, tr := n.breaker.Allow()
	t.transitioned(ctx, n, tr)
	if !allowed {
		return
	}
	t.count(MetricProbes)
	pctx, cancel := context.WithTimeout(ctx, t.cfg.ProbeTimeout)
	err := n.client.Healthz(pctx)
	cancel()
	if err != nil {
		if ctx.Err() != nil {
			return // shutdown, not node trouble
		}
		t.count(MetricProbeFailures)
		t.transitioned(ctx, n, n.breaker.Failure())
		return
	}
	t.transitioned(ctx, n, n.breaker.Success())
}
