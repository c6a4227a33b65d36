// Package parallel is the repository's single bounded fan-out primitive.
// Every concurrent layer — corpus profiling, cross-validation folds, the
// specialized-detector sweep, stage-2 training — runs on the same pool so
// that cancellation, error propagation and determinism behave identically
// everywhere:
//
//   - Cancellation: the context is observed both between tasks (a cancelled
//     pool schedules no further work) and inside tasks that choose to poll
//     it, so a SIGINT-driven shutdown is prompt and leaks no goroutines.
//   - Errors: the first failing task cancels the pool; the returned error
//     aggregates every distinct task failure (in input order, so error text
//     is deterministic) and matches errors.Is/errors.As against each.
//   - Determinism: results land at their input index regardless of
//     completion order, so a Seed-identical run produces byte-identical
//     output at any worker count.
package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"time"
)

// Hook observes the task lifecycle of one fan-out run. Implementations
// must be safe for concurrent use: workers call them in parallel. The
// package deliberately defines only this interface — telemetry adapters
// (telemetry.PoolHook) satisfy it structurally, keeping the execution
// substrate free of any observability dependency.
type Hook interface {
	// TaskStart fires when a worker picks up task index, queueWait after
	// the feeder offered it.
	TaskStart(index int, queueWait time.Duration)
	// TaskDone fires when the task returns, having run for d (err nil on
	// success). It fires for failed tasks too, unlike OnProgress.
	TaskDone(index int, d time.Duration, err error)
}

// Options tunes a fan-out run. The zero value is ready to use.
type Options struct {
	// Workers bounds concurrency (default runtime.NumCPU()). A run never
	// uses more workers than it has tasks.
	Workers int
	// OnProgress, when non-nil, is called after every completed task with
	// the number of tasks finished so far and the total. Calls are
	// serialized and done is strictly increasing, so the callback needs no
	// locking of its own. Failed and skipped tasks do not report progress.
	OnProgress func(done, total int)
	// Hook, when non-nil, observes every task's start and completion with
	// timing. When nil the pool takes no clock readings at all.
	Hook Hook
}

// WorkerCount is the number of workers a run of n tasks uses under o:
// Workers, or runtime.NumCPU() when Workers <= 0, capped at n and at
// least 1. Callers that split work into one chunk per worker size their
// chunks with it.
func (o Options) WorkerCount(n int) int {
	w := o.Workers
	if w <= 0 {
		w = runtime.NumCPU()
	}
	if w > n {
		w = n
	}
	if w < 1 {
		w = 1
	}
	return w
}

// ForEach runs fn(ctx, i) for every i in [0, n) on a bounded worker pool.
//
// The context passed to fn is derived from ctx and is cancelled as soon as
// any task fails or ctx itself is cancelled; long-running tasks should poll
// it. ForEach returns nil only if every task ran and returned nil. If ctx
// was cancelled, ForEach returns ctx's error (so callers see
// context.Canceled / context.DeadlineExceeded); otherwise it returns the
// aggregated task errors in input order.
func ForEach(ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) error) error {
	_, err := run(ctx, n, opts, func(ctx context.Context, i int) (struct{}, error) {
		return struct{}{}, fn(ctx, i)
	})
	return err
}

// Map runs fn(ctx, i) for every i in [0, n) on a bounded worker pool and
// collects the results in input order: out[i] is fn's value for index i, no
// matter which worker computed it or when it finished. Error and
// cancellation semantics are those of ForEach; on a non-nil error the
// results are discarded.
func Map[T any](ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	return run(ctx, n, opts, fn)
}

func run[T any](ctx context.Context, n int, opts Options, fn func(ctx context.Context, i int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()

	type task struct {
		i   int
		enq time.Time // zero unless a Hook is installed
	}
	results := make([]T, n)
	errs := make([]error, n)
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		done int
		next = make(chan task)
		hook = opts.Hook
	)

	workers := opts.WorkerCount(n)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				select {
				case <-pctx.Done():
					return
				case t, ok := <-next:
					if !ok {
						return
					}
					var start time.Time
					if hook != nil {
						start = time.Now()
						hook.TaskStart(t.i, start.Sub(t.enq))
					}
					v, err := fn(pctx, t.i)
					if hook != nil {
						hook.TaskDone(t.i, time.Since(start), err)
					}
					if err != nil {
						errs[t.i] = err
						cancel() // first error stops the pool
						continue
					}
					results[t.i] = v
					if opts.OnProgress != nil {
						mu.Lock()
						done++
						opts.OnProgress(done, n)
						mu.Unlock()
					}
				}
			}
		}()
	}

feed:
	for i := 0; i < n; i++ {
		t := task{i: i}
		if hook != nil {
			t.enq = time.Now()
		}
		select {
		case next <- t:
		case <-pctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		// External cancellation wins: report it directly rather than
		// whatever mixture of task errors the teardown produced.
		return nil, err
	}
	// Tasks that merely observed the pool's own abort add no information
	// beyond the failure that triggered it, so drop pure cancellation
	// errors whenever a real failure exists.
	real := false
	for _, err := range errs {
		if err != nil && !errors.Is(err, context.Canceled) {
			real = true
			break
		}
	}
	var failures []error
	for _, err := range errs {
		if err == nil || (real && errors.Is(err, context.Canceled)) {
			continue
		}
		failures = append(failures, err)
	}
	if len(failures) == 1 {
		return nil, failures[0]
	}
	if len(failures) > 0 {
		return nil, errors.Join(failures...)
	}
	return results, nil
}
