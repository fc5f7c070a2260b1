// Package resilience provides the runtime fault-tolerance primitives the
// diagnosis pipeline is built on: a context-aware generic retry with
// exponential backoff and jitter, and a per-source circuit breaker. They are
// the dynamic counterpart to internal/degrade's static corruptions — degrade
// asks "does the algorithm survive bad data?", resilience makes the *system*
// survive bad reads, stalls, and panicking evaluations at runtime.
package resilience

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"murphy/internal/telemetry"
)

// The backoff schedule: the delay doubles after each attempt up to maxDelay,
// and half of each delay is randomized (d * (0.75 + 0.5u) for uniform u,
// so ±25%) from a stream seeded with 0, so a schedule is reproducible.
const (
	maxDelay = time.Second
	jitter   = 0.5
)

// Policy parameterizes a retry loop. The zero value retries up to four
// attempts starting at a 10 ms backoff, doubling up to 1 s, with ±25%
// jitter. Only transient faults (telemetry.IsTransient) are retried.
type Policy struct {
	// MaxAttempts is the total number of attempts, including the first
	// (<= 0 means the default of 4; 1 disables retries).
	MaxAttempts int
	// BaseDelay is the backoff before the second attempt (default 10 ms).
	BaseDelay time.Duration
	// sleep is a test seam; nil uses a context-aware timer sleep.
	sleep func(ctx context.Context, d time.Duration) error
}

// WithSleep returns a copy of the policy using fn to wait between attempts
// (a test seam so retry tests don't consume wall-clock time).
func (p Policy) WithSleep(fn func(ctx context.Context, d time.Duration) error) Policy {
	p.sleep = fn
	return p
}

func (p Policy) withDefaults() Policy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 10 * time.Millisecond
	}
	if p.sleep == nil {
		p.sleep = sleepCtx
	}
	return p
}

// sleepCtx waits for d or until the context is done, whichever is first.
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

// contextErr reports whether err is a context cancellation or deadline —
// errors that must never be retried (the caller gave up, not the source).
func contextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Do runs op under the policy: on a transient fault it backs off
// (exponentially, with jitter) and tries again until the attempts are
// exhausted or the context is done. Any other error, a context error above
// all, ends the loop at once. The zero value of T and the last error are
// returned on failure; an exhausted loop's error reports how many attempts
// were made.
func Do[T any](ctx context.Context, p Policy, op func(context.Context) (T, error)) (T, error) {
	p = p.withDefaults()
	rng := rand.New(rand.NewSource(0))
	var zero T
	delay := p.BaseDelay
	var err error
	for attempt := 1; ; attempt++ {
		if cerr := ctx.Err(); cerr != nil {
			return zero, fmt.Errorf("resilience: aborted before attempt %d: %w", attempt, cerr)
		}
		var v T
		v, err = op(ctx)
		if err == nil {
			return v, nil
		}
		if contextErr(err) || !telemetry.IsTransient(err) {
			return zero, err
		}
		if attempt >= p.MaxAttempts {
			break
		}
		d := time.Duration(float64(delay) * (1 - jitter/2 + jitter*rng.Float64()))
		if serr := p.sleep(ctx, d); serr != nil {
			return zero, fmt.Errorf("resilience: aborted during backoff after attempt %d: %w", attempt, serr)
		}
		delay = min(2*delay, maxDelay)
	}
	return zero, fmt.Errorf("resilience: %d attempts exhausted: %w", p.MaxAttempts, err)
}
