package resilience

import (
	"errors"
	"sync"
	"time"
)

// ErrOpen is returned by a breaker that is refusing calls because the
// protected source has been failing persistently. Callers treat it like an
// unavailable source (the diagnosis core falls back to missing-data
// placeholders) rather than hammering a sick backend with retries.
var ErrOpen = errors.New("resilience: circuit open")

// BreakerState is the classic three-state circuit-breaker automaton.
type BreakerState int

const (
	// Closed passes calls through, counting consecutive failures.
	Closed BreakerState = iota
	// Open rejects calls outright until the cooldown elapses.
	Open
	// HalfOpen lets probe calls through; success closes, failure reopens.
	HalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case Closed:
		return "closed"
	case Open:
		return "open"
	case HalfOpen:
		return "half-open"
	}
	return "unknown"
}

// BreakerConfig tunes a Breaker; zero fields fall back to defaults suited
// to per-diagnosis telemetry reads (trip after 5 consecutive failures,
// probe again after 5 s, one success closes).
type BreakerConfig struct {
	// FailureThreshold is the run of consecutive failures that opens the
	// breaker (default 5).
	FailureThreshold int
	// Cooldown is how long the breaker stays open before letting a probe
	// through (default 5 s).
	Cooldown time.Duration
	// SuccessesToClose is how many half-open probe successes close the
	// breaker again (default 1).
	SuccessesToClose int
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 5
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	if c.SuccessesToClose <= 0 {
		c.SuccessesToClose = 1
	}
	return c
}

// Breaker is a thread-safe circuit breaker. It protects one downstream
// source: when the source fails persistently the breaker opens and fails
// fast, giving the source a cooldown instead of retry pressure, then probes
// it half-open before resuming full traffic.
type Breaker struct {
	cfg BreakerConfig
	now func() time.Time // test seam

	// onTrip, when set, fires (outside the lock) each time the breaker
	// transitions to Open.
	onTrip func()

	mu        sync.Mutex
	state     BreakerState
	failures  int // consecutive failures while closed
	successes int // consecutive probe successes while half-open
	// probes counts half-open probe calls admitted but not yet recorded.
	// Only a single in-flight probe is admitted at a time: concurrent Allow
	// calls during half-open must not race to hammer a recovering source
	// with a thundering herd of "probes".
	probes   int
	openedAt time.Time
}

// SetOnTrip installs a callback fired on every Closed/HalfOpen → Open
// transition. The callback runs outside the breaker's lock (so it may call
// State) but inline with the tripping Record call; it must be fast and safe
// for concurrent use. Set it before the breaker is shared between goroutines.
func (b *Breaker) SetOnTrip(fn func()) { b.onTrip = fn }

// NewBreaker builds a closed breaker with the given configuration.
func NewBreaker(cfg BreakerConfig) *Breaker {
	return &Breaker{cfg: cfg.withDefaults(), now: time.Now}
}

// WithClock replaces the breaker's time source (test seam).
func (b *Breaker) WithClock(now func() time.Time) *Breaker {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.now = now
	return b
}

// State returns the breaker's current state (advancing Open → HalfOpen if
// the cooldown has elapsed).
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tick()
	return b.state
}

// tick advances Open → HalfOpen once the cooldown has elapsed. Callers must
// hold b.mu.
func (b *Breaker) tick() {
	if b.state == Open && b.now().Sub(b.openedAt) >= b.cfg.Cooldown {
		b.state = HalfOpen
		b.successes = 0
		b.probes = 0
	}
}

// Allow reports whether a call may proceed right now; ErrOpen means the
// caller should fail fast. A nil result must be followed by a Record call
// with the outcome. While half-open, only one probe is admitted at a time:
// concurrent callers fail fast with ErrOpen until the in-flight probe's
// outcome is recorded, so a recovering source sees a single probe per
// decision instead of a thundering herd.
func (b *Breaker) Allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.tick()
	switch b.state {
	case Open:
		return ErrOpen
	case HalfOpen:
		if b.probes > 0 {
			return ErrOpen
		}
		b.probes++
	}
	return nil
}

// Record feeds one call outcome into the automaton. Context cancellations
// are not counted: the caller gave up, which says nothing about the source.
func (b *Breaker) Record(err error) {
	if contextErr(err) {
		return
	}
	b.mu.Lock()
	tripped := b.recordLocked(err)
	b.mu.Unlock()
	if tripped && b.onTrip != nil {
		b.onTrip()
	}
}

// recordLocked applies one outcome and reports whether it tripped the
// breaker. Callers must hold b.mu.
func (b *Breaker) recordLocked(err error) bool {
	b.tick()
	if b.state == HalfOpen && b.probes > 0 {
		// The in-flight probe (or a pre-trip straggler — indistinguishable
		// by outcome alone, and equally informative) has finished; free the
		// probe slot for the next Allow.
		b.probes--
	}
	switch b.state {
	case Closed:
		if err == nil {
			b.failures = 0
			return false
		}
		b.failures++
		if b.failures >= b.cfg.FailureThreshold {
			b.trip()
			return true
		}
	case HalfOpen:
		if err != nil {
			b.trip()
			return true
		}
		b.successes++
		if b.successes >= b.cfg.SuccessesToClose {
			b.state = Closed
			b.failures = 0
		}
	case Open:
		// A straggler finishing after the trip; nothing to update.
	}
	return false
}

// trip opens the breaker. Callers must hold b.mu.
func (b *Breaker) trip() {
	b.state = Open
	b.openedAt = b.now()
	b.failures = 0
	b.successes = 0
	b.probes = 0
}
