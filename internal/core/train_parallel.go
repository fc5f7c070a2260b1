package core

import (
	"context"
	"sync"
	"sync/atomic"
)

// forEachIndex runs fn(i) for every i in [0, n), fanning the calls across up
// to `workers` goroutines. It is the package's one worker pool — the
// training pass's per-series and per-factor jobs, a diagnosis's candidate
// evaluations and a candidate's Gibbs chains all run on it — built so
// parallelism can never change results:
//
//   - workers <= 1 (or n <= 1) degrades to the plain inline loop — no
//     goroutines, no channels — so single-threaded configurations pay zero
//     scheduling overhead (GOMAXPROCS=1 boxes run exactly the historical
//     code path).
//   - Work items are claimed from an atomic counter and fn(i) must write only
//     to slot i of its output, so results are positionally deterministic
//     regardless of goroutine interleaving.
//   - The context is polled before every item; on cancellation remaining
//     items fail fast with the context error and fn never runs for them.
//
// The returned error is the lowest-index failure, which for deterministic fn
// is the same error the serial loop would have returned first.
func forEachIndex(ctx context.Context, workers, n int, fn func(i int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			if err := fn(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue
				}
				errs[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
