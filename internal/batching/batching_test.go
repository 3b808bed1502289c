package batching

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"etude/internal/overload"
)

func TestConfigValidation(t *testing.T) {
	double := func(batch []int) []int {
		out := make([]int, len(batch))
		for i, v := range batch {
			out[i] = 2 * v
		}
		return out
	}
	if _, err := New(Config{MaxBatch: 0, FlushEvery: time.Millisecond}, double); err == nil {
		t.Fatalf("MaxBatch 0 accepted")
	}
	if _, err := New(Config{MaxBatch: 4, FlushEvery: 0}, double); err == nil {
		t.Fatalf("FlushEvery 0 accepted")
	}
	if _, err := New[int, int](DefaultConfig(), nil); err == nil {
		t.Fatalf("nil handler accepted")
	}
	if c := DefaultConfig(); c.MaxBatch != 1024 || c.FlushEvery != 2*time.Millisecond {
		t.Fatalf("paper defaults changed: %+v", c)
	}
}

func TestSingleRequestFlushedByTimer(t *testing.T) {
	b, err := New(Config{MaxBatch: 100, FlushEvery: time.Millisecond}, func(batch []int) []int {
		out := make([]int, len(batch))
		for i, v := range batch {
			out[i] = v + 1
		}
		return out
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	got, err := b.Submit(context.Background(), 41)
	if err != nil || got != 42 {
		t.Fatalf("Submit = %v, %v", got, err)
	}
}

func TestResponsesMatchRequests(t *testing.T) {
	b, _ := New(Config{MaxBatch: 8, FlushEvery: time.Millisecond}, func(batch []int) []int {
		out := make([]int, len(batch))
		for i, v := range batch {
			out[i] = v * v
		}
		return out
	})
	defer b.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 1; i <= 64; i++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			got, err := b.Submit(context.Background(), v)
			if err != nil {
				errs <- err
				return
			}
			if got != v*v {
				t.Errorf("Submit(%d) = %d, want %d", v, got, v*v)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

func TestMaxBatchRespected(t *testing.T) {
	var maxSeen atomic.Int64
	b, _ := New(Config{MaxBatch: 4, FlushEvery: 50 * time.Millisecond}, func(batch []string) []string {
		if int64(len(batch)) > maxSeen.Load() {
			maxSeen.Store(int64(len(batch)))
		}
		return batch
	})
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := b.Submit(context.Background(), "x"); err != nil {
				t.Errorf("Submit: %v", err)
			}
		}()
	}
	wg.Wait()
	if maxSeen.Load() > 4 {
		t.Fatalf("batch of %d exceeded MaxBatch 4", maxSeen.Load())
	}
}

func TestBatchingActuallyBatches(t *testing.T) {
	var calls atomic.Int64
	b, _ := New(Config{MaxBatch: 64, FlushEvery: 20 * time.Millisecond}, func(batch []int) []int {
		calls.Add(1)
		return batch
	})
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = b.Submit(context.Background(), 1)
		}()
	}
	wg.Wait()
	// 32 concurrent requests within one 20ms window must need far fewer
	// handler invocations than requests.
	if calls.Load() > 8 {
		t.Fatalf("32 requests used %d handler calls — not batching", calls.Load())
	}
}

func TestSubmitContextCancelled(t *testing.T) {
	block := make(chan struct{})
	b, _ := New(Config{MaxBatch: 1, FlushEvery: time.Millisecond}, func(batch []int) []int {
		<-block
		return batch
	})
	defer b.Close()
	defer close(block)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	// First request occupies the handler; second's context expires.
	go func() { _, _ = b.Submit(context.Background(), 1) }()
	time.Sleep(5 * time.Millisecond)
	_, err := b.Submit(ctx, 2)
	if err == nil {
		t.Fatalf("expected context error")
	}
}

func TestExpiredEntriesDroppedBeforeHandler(t *testing.T) {
	// A request whose deadline passes while buffered must never reach the
	// handler: the batcher answers its context error at flush time.
	var seen atomic.Int64
	block := make(chan struct{})
	parked := make(chan struct{})
	b, _ := New(Config{MaxBatch: 8, FlushEvery: time.Millisecond}, func(batch []int) []int {
		seen.Add(int64(len(batch)))
		close(parked) // only the first flush runs before the test ends
		<-block
		return batch
	})
	defer b.Close()
	defer close(block)

	// First request occupies the only executor in the handler...
	go func() { _, _ = b.Submit(context.Background(), 1) }()
	<-parked
	// ...so this one sits buffered past its deadline until the next flush.
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
	defer cancel()
	_, err := b.Submit(ctx, 2)
	// The flush path answers the dedicated sentinel (so the server can 504
	// and count it) which still matches the generic budget error.
	if err != ErrDeadlineExpired && err != context.DeadlineExceeded {
		t.Fatalf("Submit = %v, want ErrDeadlineExpired", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-drop error %v does not match context.DeadlineExceeded", err)
	}
	if got := seen.Load(); got != 1 {
		t.Fatalf("handler saw %d requests, want only the live one", got)
	}
}

func TestCoDelShedsStandingQueue(t *testing.T) {
	// A CoDel driven into its drop state (virtual clock, nanosecond
	// target/interval so any measurable sojourn counts) must shed the
	// request that sat buffered behind a slow flush, without the handler
	// ever seeing it.
	clk := time.Duration(0)
	cd := overload.NewCoDel(overload.CoDelConfig{Target: time.Nanosecond, Interval: time.Nanosecond}, func() time.Duration {
		clk += time.Millisecond
		return clk
	})

	var seen atomic.Int64
	release := make(chan struct{})
	parked := make(chan struct{}, 1)
	b, _ := New(Config{MaxBatch: 8, FlushEvery: time.Millisecond, CoDel: cd}, func(batch []int) []int {
		seen.Add(int64(len(batch)))
		select {
		case parked <- struct{}{}:
			<-release // only the first flush parks the dispatcher
		default:
		}
		return batch
	})
	defer b.Close()

	// The first request's flush arms the excursion (its sojourn is above
	// the nanosecond target) and parks the dispatcher in the handler.
	go func() { _, _ = b.Submit(context.Background(), 1) }()
	<-parked
	// Tip the controller into its drop state while the second request sits
	// buffered behind the parked flush.
	if !cd.ShouldDrop(time.Second) || !cd.Dropping() {
		t.Fatal("controller did not enter its drop state")
	}
	errc := make(chan error, 1)
	go func() {
		_, err := b.Submit(context.Background(), 2)
		errc <- err
	}()
	for b.Pending() < 2 {
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	if err := <-errc; err != ErrCoDelDropped {
		t.Fatalf("Submit = %v, want ErrCoDelDropped", err)
	}
	if cd.Dropped() < 2 {
		t.Fatalf("controller drops = %d, want ≥ 2", cd.Dropped())
	}
	if seen.Load() != 1 {
		t.Fatalf("handler saw %d requests, want only the live one", seen.Load())
	}
}

func TestSubmitAfterClose(t *testing.T) {
	b, _ := New(Config{MaxBatch: 1, FlushEvery: time.Millisecond}, func(batch []int) []int { return batch })
	b.Close()
	time.Sleep(2 * time.Millisecond)
	if _, err := b.Submit(context.Background(), 1); err == nil {
		t.Fatalf("Submit after Close must error")
	}
}

func TestThroughputUnderLoad(t *testing.T) {
	// A handler with a fixed 1ms cost per batch must sustain far more than
	// 1,000 sequential-equivalent requests/second thanks to batching.
	b, _ := New(Config{MaxBatch: 1024, FlushEvery: 2 * time.Millisecond}, func(batch []int) []int {
		time.Sleep(time.Millisecond)
		return batch
	})
	defer b.Close()
	start := time.Now()
	var wg sync.WaitGroup
	const n = 2000
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _ = b.Submit(context.Background(), 1)
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if elapsed > time.Second {
		t.Fatalf("2000 batched requests took %v — batching broken", elapsed)
	}
}

// TestExecutorsBoundConcurrentBatches: with K executors at most K batches
// run at once, and under load all K do; every request gets its own answer.
func TestExecutorsBoundConcurrentBatches(t *testing.T) {
	const k = 3
	var running, peak atomic.Int64
	b, err := NewTenants(Config{MaxBatch: 1, FlushEvery: time.Millisecond}.Sched(), nil, nil, k, func(batch []int) []int {
		n := running.Add(1)
		for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
		}
		time.Sleep(time.Millisecond)
		running.Add(-1)
		out := make([]int, len(batch))
		for i, v := range batch {
			out[i] = v + 1
		}
		return out
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var wg sync.WaitGroup
	for i := 0; i < 60; i++ {
		wg.Add(1)
		go func(v int) {
			defer wg.Done()
			if got, err := b.Submit(context.Background(), v); err != nil || got != v+1 {
				t.Errorf("Submit(%d) = %d, %v", v, got, err)
			}
		}(i)
	}
	wg.Wait()
	if p := peak.Load(); p != k {
		t.Fatalf("peak concurrent batches = %d, want %d", p, k)
	}
}
