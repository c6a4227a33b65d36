package parallel

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrdering(t *testing.T) {
	// Results must land at their input index regardless of completion
	// order; later indices finish first here.
	n := 32
	out, err := Map(context.Background(), n, Options{Workers: 8}, func(_ context.Context, i int) (int, error) {
		time.Sleep(time.Duration(n-i) * time.Millisecond / 4)
		return i * i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d]=%d, want %d", i, v, i*i)
		}
	}
}

func TestWorkerBound(t *testing.T) {
	var inFlight, peak atomic.Int32
	err := ForEach(context.Background(), 64, Options{Workers: 3}, func(context.Context, int) error {
		cur := inFlight.Add(1)
		for {
			p := peak.Load()
			if cur <= p || peak.CompareAndSwap(p, cur) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > 3 {
		t.Fatalf("observed %d concurrent tasks, cap is 3", p)
	}
}

func TestFirstErrorStopsPool(t *testing.T) {
	var started atomic.Int32
	boom := errors.New("boom")
	err := ForEach(context.Background(), 1000, Options{Workers: 2}, func(_ context.Context, i int) error {
		started.Add(1)
		if i == 3 {
			return boom
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v, want boom", err)
	}
	if n := started.Load(); n > 100 {
		t.Fatalf("%d tasks started after the failure; pool did not stop", n)
	}
}

func TestMultiErrorAggregation(t *testing.T) {
	errA := errors.New("task 2 failed")
	errB := errors.New("task 5 failed")
	// Gate every task until all 8 have started, so both failures are
	// in flight before the first can cancel the pool; both must surface.
	var started atomic.Int32
	gate := make(chan struct{})
	err := ForEach(context.Background(), 8, Options{Workers: 8}, func(_ context.Context, i int) error {
		if started.Add(1) == 8 {
			close(gate)
		}
		<-gate
		switch i {
		case 2:
			return errA
		case 5:
			return errB
		default:
			return nil
		}
	})
	if !errors.Is(err, errA) || !errors.Is(err, errB) {
		t.Fatalf("aggregate %v must match both failures", err)
	}
}

func TestCancellationEchoesSuppressed(t *testing.T) {
	boom := errors.New("boom")
	err := ForEach(context.Background(), 4, Options{Workers: 4}, func(ctx context.Context, i int) error {
		if i == 0 {
			return boom
		}
		// Cooperative tasks report the pool's own abort; that echo must
		// not obscure the real failure.
		time.Sleep(2 * time.Millisecond)
		return ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err=%v, want boom", err)
	}
	if err.Error() != boom.Error() {
		t.Fatalf("err=%q carries cancellation echoes", err)
	}
}

func TestExternalCancellation(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	release := make(chan struct{})
	go func() {
		<-release
		cancel()
	}()
	start := time.Now()
	err := ForEach(ctx, 10000, Options{Workers: 4}, func(ctx context.Context, i int) error {
		if i == 0 {
			close(release)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
			return nil
		}
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v, want prompt return", elapsed)
	}
	waitForGoroutines(t, before)
}

func TestDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	err := ForEach(ctx, 1000, Options{Workers: 2}, func(ctx context.Context, _ int) error {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
			return nil
		}
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err=%v, want deadline exceeded", err)
	}
}

func TestProgress(t *testing.T) {
	var calls []int
	_, err := Map(context.Background(), 20, Options{Workers: 5, OnProgress: func(done, total int) {
		if total != 20 {
			t.Errorf("total=%d, want 20", total)
		}
		calls = append(calls, done) // serialized by contract: no lock needed
	}}, func(_ context.Context, i int) (int, error) {
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(calls) != 20 {
		t.Fatalf("progress called %d times, want 20", len(calls))
	}
	for i, d := range calls {
		if d != i+1 {
			t.Fatalf("progress not strictly increasing: %v", calls)
		}
	}
}

func TestZeroTasks(t *testing.T) {
	out, err := Map(context.Background(), 0, Options{}, func(_ context.Context, i int) (int, error) {
		t.Fatal("fn must not run")
		return 0, nil
	})
	if err != nil || out != nil {
		t.Fatalf("out=%v err=%v", out, err)
	}
}

func TestPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	err := ForEach(ctx, 100, Options{}, func(context.Context, int) error {
		ran.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err=%v, want context.Canceled", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d tasks ran under a cancelled context", n)
	}
}

func TestDefaultWorkers(t *testing.T) {
	if got := (Options{}).workers(1000); got != runtime.NumCPU() {
		t.Fatalf("default workers=%d, want NumCPU=%d", got, runtime.NumCPU())
	}
	if got := (Options{Workers: 16}).workers(4); got != 4 {
		t.Fatalf("workers=%d, want clamp to 4 tasks", got)
	}
}

// waitForGoroutines retries until the goroutine count settles back to (or
// below) the baseline, tolerating runtime background goroutines.
func waitForGoroutines(t *testing.T, baseline int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= baseline+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d > baseline %d\n%s",
				runtime.NumGoroutine(), baseline, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// workers is the name TestDefaultWorkers checks WorkerCount under.
func (o Options) workers(n int) int { return o.WorkerCount(n) }
