package sim

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"etude/internal/device"
	"etude/internal/model"
	"etude/internal/overload"
	"etude/internal/sched"
	"etude/internal/trace"
)

// Fault outcomes a simulated instance can report for a request. They mirror
// what a real client observes: a connection reset when the pod dies, and an
// immediate refusal when admission control sheds the request.
var (
	// ErrPodDown is returned for requests routed to (or in flight on) a
	// crashed pod.
	ErrPodDown = errors.New("sim: pod down")
	// ErrShed is returned when the instance's bounded queue is full and the
	// request is refused instead of enqueued.
	ErrShed = errors.New("sim: request shed (queue full)")
	// ErrLimited is returned when the adaptive concurrency limiter refuses
	// admission — the sim analogue of the server's 429 "adaptive limit"
	// response; refused before any queueing, so retryable.
	ErrLimited = errors.New("sim: request shed (adaptive concurrency limit)")
	// ErrDeadlineExpired is returned for a request whose queue sojourn
	// consumed its whole deadline budget: dropped at dequeue, before the
	// executor, mirroring the server's 504 deadline-exceeded-in-queue. The
	// budget is gone, so it is never retried.
	ErrDeadlineExpired = errors.New("sim: deadline expired in queue")
	// ErrCoDelDropped is returned for a request shed at dequeue by the CoDel
	// queue discipline (standing queue above target); the client still has
	// budget, so it is retryable like ErrShed.
	ErrCoDelDropped = errors.New("sim: request shed (CoDel queue discipline)")
)

// Outcome describes one completed simulated request.
type Outcome struct {
	// Latency is the end-to-end virtual time from submission to completion
	// (for failed requests: until the failure was observed).
	Latency time.Duration
	// Err is non-nil when the request failed (ErrPodDown, ErrShed).
	Err error
	// Degraded marks a response served by the cheap fallback responder
	// instead of the model.
	Degraded bool
	// Partial marks a sharded response merged from a strict subset of shard
	// groups (the sim mirror of X-Degraded: partial).
	Partial bool
	// Coverage is the fraction of shard groups that contributed to a
	// sharded response (1 for full coverage, 0 when the submitter does not
	// report coverage).
	Coverage float64
}

// Resilience configures the server-side resilience mechanisms of a simulated
// instance. The zero value reproduces the original unbounded happy-path
// behaviour.
type Resilience struct {
	// MaxQueue bounds requests waiting or in service (Pending); submissions
	// beyond it are refused with ErrShed (admission control). 0 = unbounded.
	MaxQueue int
	// DegradeAt is the pending-request watermark at which new requests are
	// answered by the cheap popularity-style fallback responder instead of
	// the model (graceful degradation). 0 disables degradation.
	DegradeAt int
	// DegradeCost is the service time of the fallback responder (default
	// 200µs — a precomputed list lookup, no model execution).
	DegradeCost time.Duration
	// Budget is the per-request deadline budget (the sim mirror of the
	// X-Deadline header): a request whose queue sojourn reaches it is
	// dropped at dequeue with ErrDeadlineExpired instead of occupying the
	// executor with work nobody is waiting for, and a batch holding it
	// flushes early (sched.Assembly). 0 disables.
	Budget time.Duration
	// CoDel, when non-nil, sheds from the head of the queue whenever the
	// minimum sojourn has exceeded the CoDel target for a full interval.
	// Build it with overload.NewCoDel(cfg, eng.Now) so its interval
	// tracking runs in virtual time; a wall-clock CoDel would break
	// determinism.
	CoDel *overload.CoDel
	// Limiter, when non-nil, is the AIMD adaptive concurrency limiter
	// consulted at admission (after the MaxQueue backstop). Completions
	// feed it observed virtual latencies; failed outcomes count as drops.
	Limiter *overload.Limiter
}

func (r Resilience) withDefaults() Resilience {
	if r.DegradeCost <= 0 {
		r.DegradeCost = 200 * time.Microsecond
	}
	return r
}

// Request is one simulated recommendation request.
type Request struct {
	// SessionLen is the click-history length, which sets the encoder cost.
	SessionLen int
	// arrival is the virtual submission time.
	arrival time.Duration
	// done receives the request outcome when it completes or fails.
	done func(Outcome)
	// sp is the request's trace span (nil when tracing is off or the
	// request never reached the executor).
	sp *trace.Span
}

// Instance simulates one serving machine: a device (CPU or GPU), a deployed
// model (represented by its per-session-length cost table) and optional JIT
// execution. Queueing and batch formation belong to a sched.Core driven on
// the engine's virtual clock — the very state machine the live server's
// batching loop runs, so the simulator makes the live server's batch
// decisions: one request at a time on CPU, the 2ms/1024 batcher on GPUs
// (one tenant), or SLO-aware multi-tenant scheduling (NewSchedInstance).
// Fault injection (internal/chaos) can crash/restart it and dilate its
// service times; Resilience bounds its queue and enables graceful
// degradation.
type Instance struct {
	eng  *Engine
	spec device.Spec
	jit  bool
	fits bool

	// costs[l] is the model's per-inference cost at session length l;
	// index 0 is unused.
	costs []model.Cost

	// core holds every admitted request not yet in service and decides
	// when a batch forms.
	core *sched.Core[Request]
	// waitStage is the trace stage a request's time in core counts under,
	// as in the live server: queue-wait on CPU, batch-assembly behind the
	// batcher, sched-wait behind the tenant scheduler.
	waitStage trace.Stage

	// flushArmed/armedAt/gen implement a shrink-only virtual flush timer:
	// arrivals can only tighten the next flush instant (the core's bound is
	// a min over queued entries), so a pending event at a later instant is
	// invalidated by bumping gen and scheduling an earlier one.
	flushArmed bool
	armedAt    time.Duration
	gen        uint64

	// Service state: at most one batch executes at a time.
	busy     bool
	inflight []Request
	// busyTotal accumulates device-busy virtual time (service durations),
	// the utilisation signal consumed by the autoscaler.
	busyTotal time.Duration
	flushes   int64

	// version is the model release the instance serves (0 when the
	// deployment predates versioned releases). HotSwap flips it.
	version int
	// swaps counts completed hot-swaps.
	swaps int64

	// Fault state (driven by the chaos injector).
	down     bool
	slowdown float64 // service-time multiplier; 1 = healthy
	// inflate multiplies the service-time component attributed to one
	// compute stage (encoder-forward or mips-topk). Nil when unused.
	inflate map[trace.Stage]float64
	epoch   uint64 // bumped on every crash; stale completions are dropped

	res Resilience

	// Overload-control counters (the sim runs single-threaded inside the
	// event loop, so plain ints suffice).
	codelDropped int64
	limited      int64

	// tracer, when set, records per-stage spans in virtual time. It must be
	// built with the engine's clock (see SetTracer).
	tracer *trace.Tracer
}

// NewInstance builds a simulated instance serving the named model.
// flushEvery and maxBatch configure the batcher (paper defaults: 2ms, 1024,
// further capped by accelerator memory); they are ignored on CPU instances.
func NewInstance(eng *Engine, spec device.Spec, name string, cfg model.Config, jit bool, flushEvery time.Duration, maxBatch int) (*Instance, error) {
	costs, err := modelCosts(name, cfg)
	if err != nil {
		return nil, err
	}
	return NewInstanceFromCosts(eng, spec, costs, jit, flushEvery, maxBatch)
}

// NewInstanceFromCosts builds an instance directly from a per-session-
// length cost table: costs[l] is the per-inference cost at session length
// l, index 0 unused. This is the entry point for workers whose cost is not
// a registered model's whole inference — the sharded retrieval tier
// (internal/shard) builds per-shard workers by slicing a model's cost
// table, so each worker's service time is its shard's share of the catalog
// scan.
func NewInstanceFromCosts(eng *Engine, spec device.Spec, costs []model.Cost, jit bool, flushEvery time.Duration, maxBatch int) (*Instance, error) {
	if len(costs) < 2 {
		return nil, fmt.Errorf("sim: cost table must cover at least session length 1, got %d entries", len(costs))
	}
	eff := min(spec.EffectiveMaxBatch(costs[1]), maxBatch)
	stage := trace.StageBatchAssembly
	if spec.Kind == device.KindCPU {
		eff, stage = 1, trace.StageQueueWait
	}
	if flushEvery <= 0 {
		flushEvery = 2 * time.Millisecond
	}
	in, err := newInstance(eng, spec, costs, jit, sched.Config{MaxBatch: max(eff, 1), FlushEvery: flushEvery}, stage)
	if err != nil {
		return nil, err
	}
	in.fits = eff > 0
	return in, nil
}

// NewSchedInstance builds an instance serving the named model behind the
// SLO-aware multi-tenant scheduler scfg describes: per-tenant queues
// drained by weighted deficit round robin, deadline-aware flush timing,
// and an amortisation-driven target batch size. Submit to it with
// SubmitTenant. The scheduler config's MaxBatch (and TargetBatch) are
// capped by the accelerator's memory-bound effective batch, mirroring
// NewInstance; a TargetBatch of 0 is derived from the device cost model's
// amortisation curve via sched.AmortizedBatch.
func NewSchedInstance(eng *Engine, spec device.Spec, name string, cfg model.Config, jit bool, scfg sched.Config) (*Instance, error) {
	costs, err := modelCosts(name, cfg)
	if err != nil {
		return nil, err
	}
	eff := max(spec.EffectiveMaxBatch(costs[1]), 1)
	if scfg.MaxBatch < 1 || scfg.MaxBatch > eff {
		scfg.MaxBatch = eff
	}
	if scfg.TargetBatch <= 0 {
		scfg.TargetBatch = sched.AmortizedBatch(spec, costs[1], jit, 0)
	}
	scfg.TargetBatch = min(scfg.TargetBatch, scfg.MaxBatch)
	if scfg.FlushEvery <= 0 {
		scfg.FlushEvery = 2 * time.Millisecond
	}
	in, err := newInstance(eng, spec, costs, jit, scfg, trace.StageSchedWait)
	if err != nil {
		return nil, err
	}
	in.fits = true
	return in, nil
}

func newInstance(eng *Engine, spec device.Spec, costs []model.Cost, jit bool, scfg sched.Config, stage trace.Stage) (*Instance, error) {
	core, err := sched.NewCore[Request](scfg)
	if err != nil {
		return nil, err
	}
	return &Instance{eng: eng, spec: spec, jit: jit, costs: costs, core: core, waitStage: stage, slowdown: 1}, nil
}

// modelCosts tabulates the named model's per-inference cost for every
// session length up to cfg.MaxSessionLen (index 0 unused).
func modelCosts(name string, cfg model.Config) ([]model.Cost, error) {
	cfg = normalizeConfig(cfg)
	costs := make([]model.Cost, cfg.MaxSessionLen+1)
	for l := 1; l <= cfg.MaxSessionLen; l++ {
		c, err := model.EstimateCost(name, cfg, l)
		if err != nil {
			return nil, err
		}
		costs[l] = c
	}
	return costs, nil
}

func normalizeConfig(cfg model.Config) model.Config {
	if cfg.MaxSessionLen == 0 {
		cfg.MaxSessionLen = 50
	}
	return cfg
}

// SetResilience configures admission control and graceful degradation.
func (in *Instance) SetResilience(r Resilience) { in.res = r.withDefaults() }

// SetTracer attaches a stage tracer. Pass a tracer built with the engine's
// virtual clock — trace.New(trace.Options{Clock: eng.Now}) — so spans measure
// simulated time, not wall time. A nil tracer turns tracing back off.
func (in *Instance) SetTracer(t *trace.Tracer) { in.tracer = t }

// splitService attributes a (virtual) service duration to the encoder-forward
// and mips-topk stages proportionally to the model's FLOP breakdown — the
// same decomposition the cost model itself uses.
func splitService(c model.Cost, service time.Duration) (enc, mips time.Duration) {
	total := c.EncoderFLOPs + c.MIPSFLOPs + c.TopKOps
	if total <= 0 {
		return service, 0
	}
	enc = time.Duration(float64(service) * c.EncoderFLOPs / total)
	return enc, service - enc
}

// InflateStage multiplies the simulated service time attributed to one
// compute stage by factor — a controlled, attributable slowdown. Only
// StageEncoderForward and StageMIPSTopK carry simulated compute, so only
// those have an effect. The regression-gate test suite uses this to prove
// the gate not only detects an injected latency regression but names the
// stage that caused it. Factor ≤ 0 or 1 removes the inflation.
func (in *Instance) InflateStage(st trace.Stage, factor float64) {
	if factor <= 0 || factor == 1 {
		delete(in.inflate, st)
		return
	}
	if in.inflate == nil {
		in.inflate = make(map[trace.Stage]float64)
	}
	in.inflate[st] = factor
}

// serviceSplit computes the encoder/MIPS decomposition of a service
// duration with any configured stage inflation applied, returning the
// components and the (possibly lengthened) total to schedule.
func (in *Instance) serviceSplit(c model.Cost, service time.Duration) (enc, mips, total time.Duration) {
	enc, mips = splitService(c, service)
	if f, ok := in.inflate[trace.StageEncoderForward]; ok {
		enc = time.Duration(float64(enc) * f)
	}
	if f, ok := in.inflate[trace.StageMIPSTopK]; ok {
		mips = time.Duration(float64(mips) * f)
	}
	return enc, mips, enc + mips
}

// Fits reports whether the model fits the instance at all (GPU memory).
func (in *Instance) Fits() bool { return in.fits }

// Up reports whether the instance is serving (false after Crash until
// Restart) — the readiness-probe signal for health-aware balancing.
func (in *Instance) Up() bool { return !in.down }

// Crash takes the instance down, failing every queued and in-flight
// request with ErrPodDown, in arrival order (a dying pod resets its
// connections), and cancelling the pending flush. Subsequent submissions
// fail immediately until Restart.
func (in *Instance) Crash() {
	if in.down {
		return
	}
	in.down = true
	in.epoch++ // invalidate scheduled completions
	in.gen++   // and the pending flush event
	in.busy, in.flushArmed = false, false
	now := in.eng.Now()
	failed := append(append([]Request(nil), in.inflight...), in.core.Drain()...)
	in.inflight = nil
	// A multi-tenant batch is in WDRR order, not arrival order.
	sort.SliceStable(failed, func(i, j int) bool { return failed[i].arrival < failed[j].arrival })
	for _, r := range failed {
		r.sp.Discard()
		r.done(Outcome{Latency: now - r.arrival, Err: ErrPodDown})
	}
}

// Restart brings a crashed instance back up with an empty queue (the
// restarted pod passed its readiness probe).
func (in *Instance) Restart() { in.down = false }

// Version returns the model release the instance currently serves — the
// sim mirror of the live server's etude_model_version gauge.
func (in *Instance) Version() int { return in.version }

// Swaps returns how many hot-swaps the instance has completed.
func (in *Instance) Swaps() int64 { return in.swaps }

// SetVersion pins the starting model version (the sim analogue of booting
// a pod with -model-version).
func (in *Instance) SetVersion(v int) { in.version = v }

// HotSwap mirrors the live server's background release swap: the new
// version loads and verifies for loadTime of virtual time while the
// incumbent keeps serving, then the version pointer flips. The executor
// never stalls — queued and in-flight requests complete untouched on
// whichever version they arrived under. A pod that is down when the load
// would finish swaps nothing (its restart re-reads CURRENT anyway).
func (in *Instance) HotSwap(version int, loadTime time.Duration) {
	in.eng.Schedule(loadTime, func() {
		if in.down || in.version == version {
			return
		}
		in.version = version
		in.swaps++
	})
}

// SetSlowdown sets the service-time multiplier (1 = healthy; 3 = a degraded
// node running 3× slower). Non-positive values reset to 1.
func (in *Instance) SetSlowdown(factor float64) {
	if factor <= 0 {
		factor = 1
	}
	in.slowdown = factor
}

func (in *Instance) costFor(sessionLen int) model.Cost {
	if sessionLen < 1 {
		sessionLen = 1
	}
	if sessionLen >= len(in.costs) {
		sessionLen = len(in.costs) - 1
	}
	return in.costs[sessionLen]
}

func (in *Instance) scaled(service time.Duration) time.Duration {
	if in.slowdown == 1 {
		return service
	}
	return time.Duration(float64(service) * in.slowdown)
}

// Submit enqueues a request; done fires with the end-to-end latency. It
// predates fault injection: failures (impossible without chaos/resilience
// configured) surface only through SubmitOutcome.
func (in *Instance) Submit(sessionLen int, done func(latency time.Duration)) {
	in.SubmitOutcome(sessionLen, func(o Outcome) { done(o.Latency) })
}

// SubmitOutcome enqueues a request; done fires exactly once with the
// outcome. Down instances and full queues fail the request immediately.
func (in *Instance) SubmitOutcome(sessionLen int, done func(Outcome)) {
	in.SubmitTenant(sched.DefaultTenant, sessionLen, in.res.Budget, done)
}

// SubmitTenant enqueues a request under its tenant's queue. budget is the
// request's deadline budget (the X-Deadline header; 0 = none): if its queue
// sojourn consumes it, the request is dropped at assembly with
// ErrDeadlineExpired instead of occupying the device. A full tenant queue
// (sched.Config.MaxQueue) refuses with ErrShed. done fires exactly once.
func (in *Instance) SubmitTenant(tenant string, sessionLen int, budget time.Duration, done func(Outcome)) {
	arrival := in.eng.Now()
	if in.down {
		done(Outcome{Err: ErrPodDown})
		return
	}
	pending := in.Pending()
	// Graceful degradation: past the watermark, answer from the cheap
	// fallback responder, bypassing the model executor entirely.
	if in.res.DegradeAt > 0 && pending >= in.res.DegradeAt {
		epoch := in.epoch
		in.eng.Schedule(in.res.DegradeCost, func() {
			if in.epoch != epoch {
				done(Outcome{Latency: in.eng.Now() - arrival, Err: ErrPodDown})
				return
			}
			done(Outcome{Latency: in.eng.Now() - arrival, Degraded: true})
		})
		return
	}
	// Admission control: the static bounded queue is the backstop, ahead of
	// the adaptive limiter (mirroring the server's MaxPending ordering).
	if in.res.MaxQueue > 0 && pending >= in.res.MaxQueue {
		done(Outcome{Err: ErrShed})
		return
	}
	if lim := in.res.Limiter; lim != nil {
		if !lim.TryAcquire() {
			in.limited++
			done(Outcome{Err: ErrLimited})
			return
		}
		// Wrap the completion so every admitted request releases its slot
		// exactly once — drops (expired, CoDel, crash) feed the limiter
		// congestion evidence, successes feed it honest latency.
		inner := done
		done = func(o Outcome) {
			lim.Release(in.eng.Now()-arrival, o.Err != nil)
			inner(o)
		}
	}
	var deadline time.Duration
	if budget > 0 {
		deadline = arrival + budget
	}
	req := Request{SessionLen: sessionLen, arrival: arrival, done: done}
	req.sp = in.tracer.Start("")
	if err := in.core.Enqueue(arrival, tenant, deadline, req); err != nil {
		req.sp.Discard()
		done(Outcome{Err: ErrShed})
		return
	}
	in.pump()
}

// pump advances batch formation: start a batch while the device is idle
// and the core is ready (target batch reached or flush instant arrived),
// otherwise make sure a virtual timer is armed at the core's next flush
// bound. On CPU the target batch is 1, so an idle executor starts the
// queue head at once.
func (in *Instance) pump() {
	if in.busy {
		return // completion re-pumps
	}
	now := in.eng.Now()
	for in.core.Ready(now) {
		in.startBatch()
		if in.busy {
			return
		}
	}
	if at, ok := in.core.NextFlushAt(); ok {
		in.arm(at)
	}
}

// arm schedules the flush event at the given virtual instant unless an
// earlier (or equal) one is already pending. Later pending events are
// superseded via the generation counter — the bound only shrinks.
func (in *Instance) arm(at time.Duration) {
	if in.flushArmed && in.armedAt <= at {
		return
	}
	in.gen++
	g := in.gen
	in.flushArmed = true
	in.armedAt = at
	in.eng.Schedule(at-in.eng.Now(), func() {
		if g != in.gen {
			return // superseded by an earlier arm, a flush or a crash
		}
		in.flushArmed = false
		in.pump()
	})
}

// startBatch assembles one batch at virtual now and schedules its service
// completion. As in the live batcher's flush, entries whose deadline
// passed in the queue are answered ErrDeadlineExpired and, of the rest,
// entries the CoDel discipline sheds are answered ErrCoDelDropped — none
// of them reaches the encoder.
func (in *Instance) startBatch() {
	now := in.eng.Now()
	in.gen++ // invalidate any pending flush event; pump re-arms after
	in.flushArmed = false
	// Hold the device across the drop callbacks below: a callback that
	// resubmits only enqueues.
	in.busy = true
	batch, expired := in.core.Assemble(now, nil, nil)
	for _, r := range expired {
		r.sp.Discard()
		r.done(Outcome{Latency: now - r.arrival, Err: ErrDeadlineExpired})
	}
	kept := batch[:0]
	for _, r := range batch {
		if in.res.CoDel.ShouldDrop(now - r.arrival) {
			in.codelDropped++
			r.sp.Discard()
			r.done(Outcome{Latency: now - r.arrival, Err: ErrCoDelDropped})
			continue
		}
		kept = append(kept, r)
	}
	batch = kept
	n := len(batch)
	if n == 0 {
		in.busy = false
		return
	}
	in.inflight = batch
	in.flushes++
	in.tracer.ObserveBatchFlush(n)
	totalLen := 0
	for _, r := range batch {
		r.sp.Observe(in.waitStage, now-r.arrival)
		r.sp.SetBatchSize(n)
		totalLen += r.SessionLen
	}

	// The batch's service time uses the mean session length of its
	// requests (the encoder runs per request; the catalog scan dominates
	// and is shared). A CPU serves one request with intra-op parallelism.
	cost := in.costFor(totalLen / n)
	raw := in.spec.BatchInference(cost, n, in.jit)
	if in.spec.Kind == device.KindCPU {
		raw = in.spec.ParallelInference(cost, in.jit)
	}
	enc, mips, service := in.serviceSplit(cost, in.scaled(raw))
	in.busyTotal += service
	epoch := in.epoch
	in.eng.Schedule(service, func() {
		if in.epoch != epoch {
			return // crashed mid-batch; Crash already failed the requests
		}
		in.busy = false
		in.inflight = nil
		for _, r := range batch {
			r.sp.Observe(trace.StageEncoderForward, enc)
			r.sp.Observe(trace.StageMIPSTopK, mips)
			total := in.eng.Now() - r.arrival
			r.sp.FinishTotal(total)
			r.done(Outcome{Latency: total})
		}
		in.pump()
	})
}

// BusyTime returns the accumulated device-busy virtual time — the
// utilisation signal the autoscaler divides by wall time.
func (in *Instance) BusyTime() time.Duration { return in.busyTotal }

// Flushes returns how many batches have been launched.
func (in *Instance) Flushes() int64 { return in.flushes }

// Stats snapshots every tenant queue's scheduling counters.
func (in *Instance) Stats() []sched.TenantStats { return in.core.Stats() }

// DeadlineExpired returns how many requests were dropped at dequeue because
// their deadline budget had already been consumed in the queue.
func (in *Instance) DeadlineExpired() (n int64) {
	for _, st := range in.core.Stats() {
		n += st.Expired
	}
	return n
}

// CoDelDropped returns how many requests the CoDel queue discipline shed.
func (in *Instance) CoDelDropped() int64 { return in.codelDropped }

// Limited returns how many submissions the adaptive concurrency limiter
// refused.
func (in *Instance) Limited() int64 { return in.limited }

// Pending returns the number of admitted requests not yet answered:
// queued plus in service — the live server's count.
func (in *Instance) Pending() int { return in.core.Pending() + len(in.inflight) }
