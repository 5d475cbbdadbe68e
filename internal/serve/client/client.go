// Package client is the typed HTTP client for the uvmserved simulation
// service. It speaks the internal/serve wire types, surfaces the cache
// provenance header, and gives callers (cmd/uvmload, scripts, tests)
// one place that knows the endpoint layout.
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

	"uvmsim/internal/serve"
	"uvmsim/internal/telemetry"
)

// Result is one service response: the verbatim body plus the transport
// facts a caller needs to reason about it.
type Result struct {
	// Status is the HTTP status code.
	Status int
	// Source is the cache provenance (miss/hit/coalesced) from the
	// X-Uvmsim-Cache header; empty when the server sent none.
	Source serve.Source
	// Hash is the content address from X-Uvmsim-Hash.
	Hash string
	// Body holds the exact response bytes.
	Body []byte
	// RetryAfter is the parsed backpressure hint on 429 responses.
	RetryAfter time.Duration
	// Latency is the client-observed round-trip time, summed across
	// every attempt (excluding backoff waits) when retrying.
	Latency time.Duration
	// Retries counts the retry attempts this call consumed (0 when the
	// first attempt settled, or when no RetryPolicy is configured).
	Retries int
	// TraceID/ReqID echo the server's X-Trace-ID and X-Request-ID
	// response headers — the IDs to grep for in the fleet's logs.
	TraceID string
	ReqID   string
}

// OK reports whether the response carried a 2xx status.
func (r *Result) OK() bool { return r.Status >= 200 && r.Status < 300 }

// Busy reports whether the server shed this request (HTTP 429).
func (r *Result) Busy() bool { return r.Status == http.StatusTooManyRequests }

// Decode unmarshals the body into v.
func (r *Result) Decode(v interface{}) error { return json.Unmarshal(r.Body, v) }

// Err extracts the server's error envelope for non-2xx responses.
func (r *Result) Err() error {
	if r.OK() {
		return nil
	}
	var e serve.ErrorResponse
	if json.Unmarshal(r.Body, &e) == nil && e.Error != "" {
		return fmt.Errorf("server: %s (HTTP %d)", e.Error, r.Status)
	}
	return fmt.Errorf("server: HTTP %d", r.Status)
}

// Client talks to one uvmserved base URL.
type Client struct {
	base  string
	hc    *http.Client
	retry RetryPolicy
}

// New returns a client for base (e.g. "http://127.0.0.1:8844"). A nil
// http.Client selects a default with a 10-minute overall timeout —
// simulations are long requests.
func New(base string, hc *http.Client) *Client {
	if hc == nil {
		hc = &http.Client{Timeout: 10 * time.Minute}
	}
	return &Client{base: strings.TrimRight(base, "/"), hc: hc}
}

// do issues a request under the retry policy: transport errors and 429
// rejections retry up to MaxRetries times with capped jittered backoff,
// honoring the server's Retry-After hint; every other outcome returns
// immediately. With no policy configured this is a single attempt.
//
// Telemetry: the context's trace ID (telemetry.WithTraceID) is
// forwarded on every attempt, and one request ID is minted per do call
// and held stable across its retries — the server's logs then show one
// req_id with several access lines, which is exactly what a retry is.
func (c *Client) do(ctx context.Context, method, path string, payload interface{}) (*Result, error) {
	var latency time.Duration
	reqID := telemetry.ReqID(ctx)
	if reqID == "" {
		reqID = telemetry.NewID()
	}
	for retries := 0; ; retries++ {
		res, err := c.once(ctx, method, path, payload, reqID)
		if res != nil {
			latency += res.Latency
			res.Latency = latency
			res.Retries = retries
		}
		transient := err != nil || res.Busy()
		if !transient || retries >= c.retry.MaxRetries || ctx.Err() != nil {
			return res, err
		}
		var hint time.Duration
		if res != nil {
			hint = res.RetryAfter
		}
		wait := c.retry.wait(retries+1, hint)
		if dl, ok := ctx.Deadline(); ok && c.retry.clock().Add(wait).After(dl) {
			// The deadline cannot fit this backoff sleep: the retry would
			// only ever observe context.DeadlineExceeded, so surface the
			// last real outcome now instead of burning the remaining budget
			// asleep.
			return res, err
		}
		if serr := c.retry.sleep(ctx, wait); serr != nil {
			return res, err // cancelled mid-backoff: surface the last outcome
		}
	}
}

// once issues one request and packages the response.
func (c *Client) once(ctx context.Context, method, path string, payload interface{}, reqID string) (*Result, error) {
	var body io.Reader
	if payload != nil {
		b, err := json.Marshal(payload)
		if err != nil {
			return nil, err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if payload != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if tid := telemetry.TraceID(ctx); tid != "" {
		req.Header.Set(telemetry.HeaderTraceID, tid)
	}
	if reqID != "" {
		req.Header.Set(telemetry.HeaderReqID, reqID)
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Status:  resp.StatusCode,
		Source:  serve.Source(resp.Header.Get("X-Uvmsim-Cache")),
		Hash:    resp.Header.Get("X-Uvmsim-Hash"),
		Body:    raw,
		Latency: time.Since(start),
		TraceID: resp.Header.Get(telemetry.HeaderTraceID),
		ReqID:   resp.Header.Get(telemetry.HeaderReqID),
	}
	res.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"), time.Now)
	return res, nil
}

// Sim runs one single-cell simulation.
func (c *Client) Sim(ctx context.Context, req serve.SimRequest) (*Result, error) {
	return c.do(ctx, http.MethodPost, "/v1/sim", req)
}

// CacheFill write-throughs one completed cell's result into the
// server's content-addressed cache without running a simulation.
func (c *Client) CacheFill(ctx context.Context, req serve.CacheFillRequest) (*Result, error) {
	return c.do(ctx, http.MethodPost, "/v1/cachefill", req)
}

// Sweep runs a synchronous parameter sweep.
func (c *Client) Sweep(ctx context.Context, req serve.SweepRequest) (*Result, error) {
	return c.do(ctx, http.MethodPost, "/v1/sweep", req)
}

// Submit enqueues an async sweep job; the returned info carries the id
// to poll.
func (c *Client) Submit(ctx context.Context, req serve.SweepRequest) (serve.JobInfo, *Result, error) {
	res, err := c.do(ctx, http.MethodPost, "/v1/jobs", req)
	if err != nil {
		return serve.JobInfo{}, nil, err
	}
	if !res.OK() && res.Status != http.StatusAccepted {
		return serve.JobInfo{}, res, res.Err()
	}
	var info serve.JobInfo
	if err := res.Decode(&info); err != nil {
		return serve.JobInfo{}, res, err
	}
	return info, res, nil
}

// JobStatus polls one job.
func (c *Client) JobStatus(ctx context.Context, id string) (serve.JobInfo, error) {
	res, err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil)
	if err != nil {
		return serve.JobInfo{}, err
	}
	if !res.OK() {
		return serve.JobInfo{}, res.Err()
	}
	var info serve.JobInfo
	return info, res.Decode(&info)
}

// JobResult fetches a settled job's body.
func (c *Client) JobResult(ctx context.Context, id string) (*Result, error) {
	return c.do(ctx, http.MethodGet, "/v1/jobs/"+id+"/result", nil)
}

// WaitJob polls a job until it settles (done or failed), then returns
// its final info. poll <= 0 selects 50ms.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (serve.JobInfo, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		info, err := c.JobStatus(ctx, id)
		if err != nil {
			return info, err
		}
		if info.State == serve.JobDone || info.State == serve.JobFailed {
			return info, nil
		}
		select {
		case <-ctx.Done():
			return info, ctx.Err()
		case <-t.C:
		}
	}
}

// Healthz reports whether the server answers 200 on /healthz.
func (c *Client) Healthz(ctx context.Context) error {
	res, err := c.do(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return err
	}
	if !res.OK() {
		return res.Err()
	}
	return nil
}

// Metrics fetches the Prometheus exposition text.
func (c *Client) Metrics(ctx context.Context) (string, error) {
	res, err := c.do(ctx, http.MethodGet, "/metrics", nil)
	if err != nil {
		return "", err
	}
	if !res.OK() {
		return "", res.Err()
	}
	return string(res.Body), nil
}

// Experiments lists the server's registered experiment ids.
func (c *Client) Experiments(ctx context.Context) ([]string, error) {
	res, err := c.do(ctx, http.MethodGet, "/v1/experiments", nil)
	if err != nil {
		return nil, err
	}
	if !res.OK() {
		return nil, res.Err()
	}
	var out struct {
		Experiments []string `json:"experiments"`
	}
	if err := res.Decode(&out); err != nil {
		return nil, err
	}
	return out.Experiments, nil
}
