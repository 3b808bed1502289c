package sim

import (
	"testing"
	"time"

	"etude/internal/costmodel"
	"etude/internal/device"
	"etude/internal/model"
	"etude/internal/trace"
)

func TestEngineOrdering(t *testing.T) {
	eng := NewEngine()
	var order []int
	eng.Schedule(3*time.Millisecond, func() { order = append(order, 3) })
	eng.Schedule(time.Millisecond, func() { order = append(order, 1) })
	eng.Schedule(2*time.Millisecond, func() { order = append(order, 2) })
	eng.Run(10 * time.Millisecond)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if eng.Now() != 10*time.Millisecond {
		t.Fatalf("Now = %v", eng.Now())
	}
}

func TestEngineSameTimeFIFO(t *testing.T) {
	eng := NewEngine()
	var order []int
	for i := 0; i < 5; i++ {
		i := i
		eng.Schedule(time.Millisecond, func() { order = append(order, i) })
	}
	eng.Drain()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestEngineRunStopsAtBoundary(t *testing.T) {
	eng := NewEngine()
	fired := false
	eng.Schedule(5*time.Millisecond, func() { fired = true })
	eng.Run(3 * time.Millisecond)
	if fired {
		t.Fatalf("event beyond horizon fired")
	}
	eng.Run(5 * time.Millisecond)
	if !fired {
		t.Fatalf("event at horizon must fire")
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	eng := NewEngine()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 10 {
			eng.Schedule(time.Millisecond, tick)
		}
	}
	eng.Schedule(0, tick)
	eng.Drain()
	if count != 10 {
		t.Fatalf("count = %d", count)
	}
	if eng.Now() != 9*time.Millisecond {
		t.Fatalf("Now = %v", eng.Now())
	}
}

func cpuInstance(t *testing.T, eng *Engine, catalog int) *Instance {
	t.Helper()
	in, err := NewInstance(eng, device.CPU(), "gru4rec", model.Config{CatalogSize: catalog, Seed: 1}, true, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

func TestCPUInstanceSingleRequest(t *testing.T) {
	eng := NewEngine()
	in := cpuInstance(t, eng, 100_000)
	var lat time.Duration
	in.Submit(3, func(l time.Duration) { lat = l })
	eng.Drain()
	want := device.CPU().ParallelInference(mustCost(t, "gru4rec", 100_000, 3), true)
	if lat != want {
		t.Fatalf("latency %v != service %v", lat, want)
	}
}

func TestCPUInstanceQueues(t *testing.T) {
	eng := NewEngine()
	in := cpuInstance(t, eng, 100_000)
	var lats []time.Duration
	for i := 0; i < 3; i++ {
		in.Submit(3, func(l time.Duration) { lats = append(lats, l) })
	}
	eng.Drain()
	if len(lats) != 3 {
		t.Fatalf("completed %d/3", len(lats))
	}
	// Single executor: the i-th request waits for i earlier ones.
	if !(lats[0] < lats[1] && lats[1] < lats[2]) {
		t.Fatalf("queueing not serialised: %v", lats)
	}
}

func TestGPUInstanceBatchesWithinWindow(t *testing.T) {
	eng := NewEngine()
	in, err := NewInstance(eng, device.GPUT4(), "gru4rec", model.Config{CatalogSize: 1_000_000, Seed: 1}, true, 2*time.Millisecond, 1024)
	if err != nil {
		t.Fatal(err)
	}
	var lats []time.Duration
	// 10 requests arrive together: they must ride one batch.
	for i := 0; i < 10; i++ {
		in.Submit(3, func(l time.Duration) { lats = append(lats, l) })
	}
	eng.Drain()
	if len(lats) != 10 {
		t.Fatalf("completed %d/10", len(lats))
	}
	batched := device.GPUT4().BatchInference(mustCost(t, "gru4rec", 1_000_000, 3), 10, true)
	want := 2*time.Millisecond + batched
	for _, l := range lats {
		if l != want {
			t.Fatalf("latency %v, want flush wait + batch service = %v", l, want)
		}
	}
}

func TestGPUInstanceFullBufferFlushesImmediately(t *testing.T) {
	eng := NewEngine()
	in, err := NewInstance(eng, device.GPUT4(), "core", model.Config{CatalogSize: 10_000, Seed: 1}, true, 50*time.Millisecond, 4)
	if err != nil {
		t.Fatal(err)
	}
	var first time.Duration
	for i := 0; i < 4; i++ {
		in.Submit(2, func(l time.Duration) {
			if first == 0 {
				first = l
			}
		})
	}
	eng.Drain()
	if first >= 50*time.Millisecond {
		t.Fatalf("full buffer waited for the timer: %v", first)
	}
}

func mustCost(t *testing.T, name string, catalog, l int) model.Cost {
	t.Helper()
	c, err := model.EstimateCost(name, model.Config{CatalogSize: catalog, Seed: 1}, l)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRunBenchmarkLowLoadCleans(t *testing.T) {
	eng := NewEngine()
	in := cpuInstance(t, eng, 100_000)
	res, err := RunBenchmark(eng, LoadConfig{TargetRate: 50, Duration: 10 * time.Second, Seed: 1}, []*Instance{in})
	if err != nil {
		t.Fatal(err)
	}
	if res.Sent == 0 {
		t.Fatalf("nothing sent")
	}
	if res.Recorder.Errors() != 0 || res.Backpressured != 0 {
		t.Fatalf("low load should be clean: errors=%d bp=%d", res.Recorder.Errors(), res.Backpressured)
	}
	if !res.Meets(costmodel.LatencySLO) {
		t.Fatalf("50 req/s at C=1e5 on CPU must meet the SLO: %v", res.Recorder.Overall())
	}
}

func TestRunBenchmarkOverloadBackpressures(t *testing.T) {
	eng := NewEngine()
	// CPU at C=1e6 manages ~150-200 req/s; offer 1,500.
	in := cpuInstance(t, eng, 1_000_000)
	res, err := RunBenchmark(eng, LoadConfig{TargetRate: 1500, Duration: 10 * time.Second, NoRamp: true, Seed: 1}, []*Instance{in})
	if err != nil {
		t.Fatal(err)
	}
	if res.Backpressured == 0 {
		t.Fatalf("overload produced no backpressure")
	}
	if res.Meets(costmodel.LatencySLO) {
		t.Fatalf("overloaded run must not meet the SLO")
	}
}

func TestRunBenchmarkRampGrows(t *testing.T) {
	eng := NewEngine()
	in := cpuInstance(t, eng, 10_000)
	res, err := RunBenchmark(eng, LoadConfig{TargetRate: 100, Duration: 10 * time.Second, Seed: 1}, []*Instance{in})
	if err != nil {
		t.Fatal(err)
	}
	series := res.Recorder.Series()
	if series[0].Sent >= series[len(series)-1].Sent {
		t.Fatalf("no ramp: first tick %d, last tick %d", series[0].Sent, series[len(series)-1].Sent)
	}
}

func TestFleetSharesLoad(t *testing.T) {
	// One CPU instance saturates at C=1e6 under 400 req/s; three share it.
	single := func(n int) *RunResult {
		eng := NewEngine()
		fleet := make([]*Instance, n)
		for i := range fleet {
			fleet[i] = cpuInstance(t, eng, 1_000_000)
		}
		res, err := RunBenchmark(eng, LoadConfig{TargetRate: 400, Duration: 15 * time.Second, NoRamp: true, Seed: 1}, fleet)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if single(1).Meets(costmodel.LatencySLO) {
		t.Fatalf("one CPU instance must fail 400 req/s at C=1e6")
	}
	if !single(3).Meets(costmodel.LatencySLO) {
		t.Fatalf("three CPU instances must handle 400 req/s at C=1e6")
	}
}

func TestRunBenchmarkValidation(t *testing.T) {
	eng := NewEngine()
	if _, err := RunBenchmark(eng, LoadConfig{TargetRate: 0, Duration: time.Second}, nil); err == nil {
		t.Fatalf("zero rate accepted")
	}
	in := cpuInstance(t, eng, 1000)
	if _, err := RunBenchmark(eng, LoadConfig{TargetRate: 10, Duration: 0}, []*Instance{in}); err == nil {
		t.Fatalf("zero duration accepted")
	}
	if _, err := RunBenchmark(eng, LoadConfig{TargetRate: 10, Duration: time.Second}, nil); err == nil {
		t.Fatalf("empty fleet accepted")
	}
}

func TestCapacityOrdering(t *testing.T) {
	cfg := model.Config{CatalogSize: 1_000_000, Seed: 1}
	cpu, err := Capacity(device.CPU(), "gru4rec", cfg, true, costmodel.LatencySLO)
	if err != nil {
		t.Fatal(err)
	}
	t4, err := Capacity(device.GPUT4(), "gru4rec", cfg, true, costmodel.LatencySLO)
	if err != nil {
		t.Fatal(err)
	}
	a100, err := Capacity(device.GPUA100(), "gru4rec", cfg, true, costmodel.LatencySLO)
	if err != nil {
		t.Fatal(err)
	}
	if !(cpu < t4 && t4 <= a100) {
		t.Fatalf("capacity ordering broken: cpu=%.0f t4=%.0f a100=%.0f", cpu, t4, a100)
	}
	// Paper: "the T4 card already handles more than 700 requests per second
	// at a 50ms p90 latency" for C=1e6.
	if t4 < 700 {
		t.Fatalf("T4 capacity at C=1e6 = %.0f, want > 700", t4)
	}
}

func TestCapacityT4FailsPlatform(t *testing.T) {
	cfg := model.Config{CatalogSize: 20_000_000, Seed: 1}
	t4, err := Capacity(device.GPUT4(), "gru4rec", cfg, true, costmodel.LatencySLO)
	if err != nil {
		t.Fatal(err)
	}
	a100, err := Capacity(device.GPUA100(), "gru4rec", cfg, true, costmodel.LatencySLO)
	if err != nil {
		t.Fatal(err)
	}
	// Table I platform row: T4 absent, 3×A100 suffice for 1,000 req/s.
	if t4 > 50 {
		t.Fatalf("T4 at C=2e7 should be (near) infeasible, got %.0f req/s", t4)
	}
	if a100 < 334 {
		t.Fatalf("A100 at C=2e7 must sustain ≥334 req/s, got %.0f", a100)
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() *RunResult {
		eng := NewEngine()
		in := cpuInstance(t, eng, 100_000)
		res, err := RunBenchmark(eng, LoadConfig{TargetRate: 200, Duration: 5 * time.Second, Seed: 7}, []*Instance{in})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Sent != b.Sent || a.Backpressured != b.Backpressured ||
		a.Recorder.Overall() != b.Recorder.Overall() {
		t.Fatalf("simulation not deterministic: %+v vs %+v", a.Recorder.Overall(), b.Recorder.Overall())
	}
}

// TestInstanceTracingVirtualTime: an instance with a tracer on the engine's
// virtual clock records stage spans in simulated time — the GPU path gets
// batch-assembly + encoder/mips splits that sum to the end-to-end latency.
func TestInstanceTracingVirtualTime(t *testing.T) {
	eng := NewEngine()
	in, err := NewInstance(eng, device.GPUT4(), "gru4rec", model.Config{CatalogSize: 1_000_000, Seed: 1}, true, 2*time.Millisecond, 1024)
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New(trace.Options{Clock: eng.Now})
	in.SetTracer(tr)
	var lats []time.Duration
	for i := 0; i < 10; i++ {
		in.Submit(3, func(l time.Duration) { lats = append(lats, l) })
	}
	eng.Drain()
	if len(lats) != 10 {
		t.Fatalf("completed %d/10", len(lats))
	}
	total := tr.TotalSnapshot()
	if total.Count != 10 {
		t.Fatalf("traced %d requests, want 10", total.Count)
	}
	// Virtual clock: the recorded e2e max equals the simulated latency.
	if total.Max != lats[0] {
		t.Fatalf("traced total %v != simulated latency %v", total.Max, lats[0])
	}
	asm := tr.StageSnapshot(trace.StageBatchAssembly)
	enc := tr.StageSnapshot(trace.StageEncoderForward)
	mips := tr.StageSnapshot(trace.StageMIPSTopK)
	if asm.Count != 10 || enc.Count != 10 {
		t.Fatalf("stage counts: assembly %d encoder %d", asm.Count, enc.Count)
	}
	// All requests arrived at t=0, so assembly is the 2ms flush window and
	// assembly + encoder + mips reconstructs the end-to-end latency exactly.
	if asm.Max != 2*time.Millisecond {
		t.Fatalf("batch-assembly %v, want the 2ms flush window", asm.Max)
	}
	if got := asm.Max + enc.Max + mips.Max; got != lats[0] {
		t.Fatalf("stage sum %v != latency %v", got, lats[0])
	}
	flushes, mean, max := tr.BatchStats()
	if flushes != 1 || mean != 10 || max != 10 {
		t.Fatalf("batch stats = %d flushes mean %v max %d", flushes, mean, max)
	}
}

// TestInstanceTracingCPUQueueWait: the CPU path attributes head-of-line
// blocking to queue-wait in virtual time.
func TestInstanceTracingCPUQueueWait(t *testing.T) {
	eng := NewEngine()
	in := cpuInstance(t, eng, 100_000)
	tr := trace.New(trace.Options{Clock: eng.Now})
	in.SetTracer(tr)
	done := 0
	for i := 0; i < 3; i++ {
		in.Submit(3, func(time.Duration) { done++ })
	}
	eng.Drain()
	if done != 3 {
		t.Fatalf("completed %d/3", done)
	}
	service := device.CPU().ParallelInference(mustCost(t, "gru4rec", 100_000, 3), true)
	// The first request starts service instantly (zero wait is not recorded);
	// the two behind it queue.
	qw := tr.StageSnapshot(trace.StageQueueWait)
	if qw.Count != 2 {
		t.Fatalf("queue-wait count %d, want 2", qw.Count)
	}
	// The third request waited exactly two service times.
	if qw.Max != 2*service {
		t.Fatalf("queue-wait max %v, want %v", qw.Max, 2*service)
	}
	enc := tr.StageSnapshot(trace.StageEncoderForward)
	mips := tr.StageSnapshot(trace.StageMIPSTopK)
	if enc.Count != 3 || mips.Count != 3 {
		t.Fatalf("stage counts: encoder %d mips %d", enc.Count, mips.Count)
	}
	// The FLOP-proportional split conserves the service time.
	if got := enc.Max + mips.Max; got != service {
		t.Fatalf("encoder+mips %v != service %v", got, service)
	}
}

// BenchmarkAblationBatching contrasts GPU serving with the paper's
// 1024/2ms batcher against unbatched serving, at the e-Commerce scenario's
// per-instance load: batching amortises the catalog scan across requests.
func BenchmarkAblationBatching(b *testing.B) {
	run := func(maxBatch int) *RunResult {
		eng := NewEngine()
		in, err := NewInstance(eng, device.GPUT4(), "gru4rec",
			model.Config{CatalogSize: 10_000_000, Seed: 1}, true, 2*time.Millisecond, maxBatch)
		if err != nil {
			b.Fatal(err)
		}
		res, err := RunBenchmark(eng, LoadConfig{
			TargetRate: 200, Duration: 20 * time.Second, NoRamp: true, Seed: 1,
		}, []*Instance{in})
		if err != nil {
			b.Fatal(err)
		}
		return res
	}
	b.Run("batched-1024", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := run(1024)
			b.ReportMetric(float64(res.Recorder.Overall().P90)/1e6, "p90-ms")
			b.ReportMetric(float64(res.Recorder.Errors()), "errors")
		}
	})
	b.Run("unbatched", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res := run(1)
			b.ReportMetric(float64(res.Recorder.Overall().P90)/1e6, "p90-ms")
			b.ReportMetric(float64(res.Recorder.Errors()), "errors")
		}
	})
}
