package main

import (
	"context"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// sample is one completed request of a timed slice.
type sample struct {
	lat time.Duration
	ok  bool
}

// capture is a response kept for verification after the slice.
type capture struct {
	oracleIdx int
	body      []byte
}

// counters is one reading of the process-wide cost counters.
type counters struct {
	cpu        time.Duration // user+sys of the whole process (getrusage)
	allocBytes uint64
	mallocs    uint64
	numGC      uint32
	gcPause    time.Duration
}

// processCPU is the user+sys time of the whole process so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	// Getrusage(RUSAGE_SELF) cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return counters{
		cpu:        processCPU(),
		allocBytes: ms.TotalAlloc,
		mallocs:    ms.Mallocs,
		numGC:      ms.NumGC,
		gcPause:    time.Duration(ms.PauseTotalNs),
	}
}

func (c counters) minus(o counters) counters {
	return counters{c.cpu - o.cpu, c.allocBytes - o.allocBytes, c.mallocs - o.mallocs, c.numGC - o.numGC, c.gcPause - o.gcPause}
}

func (c counters) plus(o counters) counters {
	return counters{c.cpu + o.cpu, c.allocBytes + o.allocBytes, c.mallocs + o.mallocs, c.numGC + o.numGC, c.gcPause + o.gcPause}
}

// window is one slice of a phase. A slice starts with every client idle
// and ends when every client's last request has been answered, so the
// counter deltas cover exactly the slice's requests: per-request costs
// carry no boundary error.
type window struct {
	latMs []float64 // latencies of successful requests
	ok    int
	// rps sums each client's own rate: its successful requests over the time
	// it spent waiting for replies. A closed-loop client with no think time
	// completes exactly that many a second, and what a client does between
	// two requests (flushing the catalog, see workloadDef.ColdCatalog) is
	// left out.
	rps float64
	// cpu is the process CPU the slice's requests cost: delta.cpu, or, where
	// the client flushes between requests, the sum over the requests alone.
	cpu   time.Duration
	delta counters
}

func (w window) p50() float64         { return percentile(w.latMs, 0.5) }
func (w window) p90() float64         { return percentile(w.latMs, 0.9) }
func (w window) throughput() float64  { return w.rps }
func (w window) cpuMsPerReq() float64 { return float64(w.cpu) / 1e6 / float64(w.ok) }

// phase is the outcome of the slices that share one client count.
type phase struct {
	name            string
	clients         int
	windows         []window
	attempted       int
	ok              int
	failed          int // non-200, transport errors and verification mismatches
	verified        int
	total           counters
	firstFailReason string
}

func (p *phase) fail(reason string) {
	p.failed++
	if p.firstFailReason == "" {
		p.firstFailReason = reason
	}
}

// runSlice drives the instance with the given closed-loop clients for dur
// and appends the slice to ph: each client sends its next request only
// when the previous one has been answered. Every verifyEvery-th request of
// a client is an oracle session whose response is kept and checked after
// the clock has stopped.
func (ph *phase) runSlice(in *instance, orc *oracle, clients []*client, dur time.Duration) {
	for _, c := range clients {
		if c.samples == nil {
			// Room for 100k req/s, made before the clock starts, so slice
			// growth never lands in a slice's allocation count.
			c.samples = make([]sample, 0, int(dur.Seconds()*100_000)+1024)
		}
		c.samples = c.samples[:0]
		c.captures = c.captures[:0]
		c.cpu = 0
	}
	// With one client nothing else runs in the process, so the CPU counter
	// can be read around each request and leave the flush out.
	perRequestCPU := in.cold != nil && len(clients) == 1
	bar := newBarrier(len(clients))
	before := readCounters()
	deadline := time.Now().Add(dur)
	var wg sync.WaitGroup
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			// A client that has left must not strand the others.
			defer bar.abort()
			ctx := context.Background()
			for time.Now().Before(deadline) {
				if in.cold != nil {
					// Each client flushes its share, and all send together:
					// concurrent scans then run side by side from the first
					// row, instead of one finding in cache whatever part the
					// other happened to load since the flush.
					in.flushShare(ci, len(clients))
					if !bar.wait() {
						break
					}
				}
				c.seq++
				verify := c.seq%verifyEvery == 0
				var idx int
				if verify {
					idx = c.oracleNext % len(orc.want)
					c.oracleNext += c.stride
					c.tap.capture = true
					c.tap.body.Reset()
				} else {
					idx = c.next % len(in.pool)
					c.next += c.stride
				}
				req := predictRequest(idx, in.pool[idx])
				var cpu0 time.Duration
				if perRequestCPU {
					cpu0 = processCPU()
				}
				t0 := time.Now()
				err := c.target.Predict(ctx, req)
				lat := time.Since(t0)
				if perRequestCPU {
					c.cpu += processCPU() - cpu0
				}
				c.samples = append(c.samples, sample{lat: lat, ok: err == nil})
				if verify {
					c.tap.capture = false
					if err == nil {
						c.captures = append(c.captures, capture{idx, append([]byte(nil), c.tap.body.Bytes()...)})
					}
				}
			}
		}(ci, c)
	}
	wg.Wait()
	w := window{delta: readCounters().minus(before)}
	w.cpu = w.delta.cpu
	if perRequestCPU {
		w.cpu = clients[0].cpu
	}

	for _, c := range clients {
		n := 0
		var busy time.Duration
		for _, s := range c.samples {
			ph.attempted++
			if !s.ok {
				ph.fail("request failed (non-200 or transport error)")
				continue
			}
			n++
			busy += s.lat
			w.latMs = append(w.latMs, float64(s.lat)/1e6)
		}
		if n > 0 {
			w.ok += n
			w.rps += float64(n) / busy.Seconds()
		}
		for _, cp := range c.captures {
			ph.verified++
			if err := orc.check(cp.oracleIdx, cp.body); err != nil {
				ph.ok-- // answered 200, but wrongly
				ph.fail(err.Error())
			}
		}
	}
	ph.ok += w.ok
	ph.total = ph.total.plus(w.delta)
	ph.windows = append(ph.windows, w)
}

// barrier lets n goroutines proceed in lock-step. The two goroutines that
// replay the batched workload must enter the server together, as two live
// clients do, or each would only time the flush timer; and the clients of a
// cold-catalog slice must all have flushed before any of them sends.
type barrier struct {
	n      int
	mu     sync.Mutex
	count  int
	gate   chan struct{}
	broken bool
}

func newBarrier(n int) *barrier { return &barrier{n: n, gate: make(chan struct{})} }

// abort releases every waiter, now and from now on: a goroutine whose
// replay failed leaves the lock-step and must not strand the other.
func (b *barrier) abort() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if !b.broken {
		b.broken = true
		close(b.gate)
	}
}

// wait returns once all n goroutines wait, or false once one has aborted.
func (b *barrier) wait() bool {
	b.mu.Lock()
	if b.broken {
		b.mu.Unlock()
		return false
	}
	b.count++
	if b.count == b.n {
		b.count = 0
		close(b.gate)
		b.gate = make(chan struct{})
		b.mu.Unlock()
		return true
	}
	gate := b.gate
	b.mu.Unlock()
	<-gate
	b.mu.Lock()
	defer b.mu.Unlock()
	return !b.broken
}

// warmUp sends only oracle sessions for dur, untimed, and verifies every
// response. It returns the number sent and the number that failed.
func warmUp(in *instance, orc *oracle, clients []*client, dur time.Duration) (attempted, failed int, reason string) {
	var mu sync.Mutex
	var wg sync.WaitGroup
	deadline := time.Now().Add(dur)
	for ci, c := range clients {
		wg.Add(1)
		go func(ci int, c *client) {
			defer wg.Done()
			for i := ci; time.Now().Before(deadline); i += len(clients) {
				idx := i % len(orc.want)
				body, err := c.predictCaptured(predictRequest(idx, in.pool[idx]))
				if err == nil {
					err = orc.check(idx, body)
				}
				mu.Lock()
				attempted++
				if err != nil {
					failed++
					if reason == "" {
						reason = err.Error()
					}
				}
				mu.Unlock()
			}
		}(ci, c)
	}
	wg.Wait()
	return attempted, failed, reason
}
