package client

import (
	"context"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"time"

	"uvmsim/internal/govern"
)

// RetryPolicy is the client's opt-in retry behaviour for transient
// outcomes: transport errors and 429 admission rejections. The server's
// Retry-After hint on 429 is honored as the wait (capped by
// MaxRetryAfter); transport errors and hint-less rejections wait a
// capped exponential backoff. Jitter decorrelates a fleet of clients
// retrying into the same admission queue.
//
// Retrying is safe for this API because every simulation endpoint is a
// pure function of its request — a retried request is answered from the
// content-addressed cache or coalesced into the in-flight run, never
// computed twice with different results.
type RetryPolicy struct {
	// MaxRetries is how many retries follow the first attempt; 0
	// disables retrying entirely.
	MaxRetries int
	// Base is the first backoff pause (default 100ms); Cap bounds the
	// exponential growth (default 5s).
	Base, Cap time.Duration
	// MaxRetryAfter caps how long a server Retry-After hint is honored
	// (default 30s) — a misconfigured server cannot park a client
	// forever.
	MaxRetryAfter time.Duration
	// Jitter is the fraction of each wait added uniformly at random
	// (default 0.25; negative disables jitter).
	Jitter float64

	// sleep, randFloat, and now are test seams.
	sleep     func(ctx context.Context, d time.Duration) error
	randFloat func() float64
	now       func() time.Time
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.Base <= 0 {
		p.Base = 100 * time.Millisecond
	}
	if p.Cap <= 0 {
		p.Cap = 5 * time.Second
	}
	if p.MaxRetryAfter <= 0 {
		p.MaxRetryAfter = 30 * time.Second
	}
	if p.Jitter == 0 {
		p.Jitter = 0.25
	} else if p.Jitter < 0 {
		p.Jitter = 0
	}
	if p.sleep == nil {
		p.sleep = sleepCtx
	}
	if p.randFloat == nil {
		p.randFloat = rand.Float64 // the global source is goroutine-safe
	}
	if p.now == nil {
		p.now = time.Now
	}
	return p
}

// clock reads the policy's clock, tolerating the zero policy (which
// never went through withDefaults).
func (p RetryPolicy) clock() time.Time {
	if p.now != nil {
		return p.now()
	}
	return time.Now()
}

// wait picks the pause before retry n: the server's hint when one was
// sent (capped), the backoff otherwise, jittered either way.
func (p RetryPolicy) wait(n int, retryAfter time.Duration) time.Duration {
	d := govern.Backoff(n, p.Base, p.Cap)
	if retryAfter > 0 {
		d = retryAfter
		if d > p.MaxRetryAfter {
			d = p.MaxRetryAfter
		}
	}
	if p.Jitter > 0 {
		d += time.Duration(p.randFloat() * p.Jitter * float64(d))
	}
	return d
}

// WithRetry enables the retry policy on the client and returns it. The
// zero policy (MaxRetries 0) leaves behaviour unchanged: one attempt,
// the caller sees every 429.
func (c *Client) WithRetry(p RetryPolicy) *Client {
	c.retry = p.withDefaults()
	return c
}

// parseRetryAfter reads a Retry-After header leniently: integer seconds
// and HTTP-dates parse; anything malformed, negative, or in the past
// yields 0, which wait() treats as "no hint" — the client falls back to
// its own capped backoff instead of failing or stalling on a server
// that emits garbage under stress.
func parseRetryAfter(h string, now func() time.Time) time.Duration {
	h = strings.TrimSpace(h)
	if h == "" {
		return 0
	}
	if secs, err := strconv.Atoi(h); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(h); err == nil {
		if d := t.Sub(now()); d > 0 {
			return d
		}
	}
	return 0
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}
