package sim

import (
	"time"

	"etude/internal/device"
	"etude/internal/model"
	"etude/internal/sched"
	"etude/internal/trace"
)

// schedReq is one request queued through the multi-tenant scheduler.
type schedReq struct {
	sessionLen int
	arrival    time.Duration
	done       func(Outcome)
	sp         *trace.Span
}

// SchedInstance simulates one serving machine whose batcher is fronted by
// the SLO-aware multi-tenant scheduler (internal/sched): per-tenant queues
// drained by weighted deficit round robin, deadline-aware flush timing, and
// an amortisation-driven target batch size. It drives the very same
// sched.Core the live server's batching loop runs, but on the engine's
// virtual clock — so the tenant-isolation experiment proves properties of
// the production scheduling code, deterministically.
//
// It deliberately omits the chaos/resilience surface of Instance: the
// scheduler experiments isolate scheduling effects, and keeping the mirror
// small keeps the bit-exact baselines of the existing experiments untouched.
type SchedInstance struct {
	eng  *Engine
	spec device.Spec
	jit  bool

	// costs[l] is the model's per-inference cost at session length l;
	// index 0 is unused.
	costs []model.Cost

	core *sched.Core[schedReq]

	busy bool
	// flushArmed/armedAt/gen implement a shrink-only virtual flush timer:
	// arrivals can only tighten the next flush instant (the core's bound is
	// a min over queued entries), so a pending event at a later instant is
	// invalidated by bumping gen and scheduling an earlier one.
	flushArmed bool
	armedAt    time.Duration
	gen        uint64

	busyTotal time.Duration
	flushes   int64

	tracer *trace.Tracer
}

// NewSchedInstance builds a scheduler-fronted simulated instance serving
// the named model. The scheduler config's MaxBatch (and TargetBatch) are
// capped by the accelerator's memory-bound effective batch, mirroring
// NewInstance; a TargetBatch of 0 is derived from the device cost model's
// amortisation curve via sched.AmortizedBatch.
func NewSchedInstance(eng *Engine, spec device.Spec, name string, cfg model.Config, jit bool, scfg sched.Config) (*SchedInstance, error) {
	cfg = normalizeConfig(cfg)
	costs := make([]model.Cost, cfg.MaxSessionLen+1)
	for l := 1; l <= cfg.MaxSessionLen; l++ {
		c, err := model.EstimateCost(name, cfg, l)
		if err != nil {
			return nil, err
		}
		costs[l] = c
	}
	eff := spec.EffectiveMaxBatch(costs[1])
	if eff < 1 {
		eff = 1
	}
	if scfg.MaxBatch < 1 || scfg.MaxBatch > eff {
		scfg.MaxBatch = eff
	}
	if scfg.TargetBatch <= 0 {
		scfg.TargetBatch = sched.AmortizedBatch(spec, costs[1], jit, 0)
	}
	if scfg.TargetBatch > scfg.MaxBatch {
		scfg.TargetBatch = scfg.MaxBatch
	}
	if scfg.FlushEvery <= 0 {
		scfg.FlushEvery = 2 * time.Millisecond
	}
	core, err := sched.NewCore[schedReq](scfg)
	if err != nil {
		return nil, err
	}
	return &SchedInstance{
		eng:   eng,
		spec:  spec,
		jit:   jit,
		costs: costs,
		core:  core,
	}, nil
}

// SetTracer attaches a stage tracer; build it with the engine's virtual
// clock (trace.New(trace.Options{Clock: eng.Now})) so spans measure
// simulated time.
func (in *SchedInstance) SetTracer(t *trace.Tracer) { in.tracer = t }

// Submit enqueues a request under its tenant. budget is the request's
// deadline budget (the X-Deadline header; 0 = none): if its queue sojourn
// consumes it, the request is dropped at assembly with ErrDeadlineExpired
// instead of occupying the accelerator. A full tenant queue refuses with
// ErrShed. done fires exactly once.
func (in *SchedInstance) Submit(tenant string, sessionLen int, budget time.Duration, done func(Outcome)) {
	arrival := in.eng.Now()
	var deadline time.Duration
	if budget > 0 {
		deadline = arrival + budget
	}
	req := schedReq{sessionLen: sessionLen, arrival: arrival, done: done}
	req.sp = in.tracer.Start("")
	if err := in.core.Enqueue(arrival, tenant, deadline, req); err != nil {
		req.sp.Discard()
		done(Outcome{Err: ErrShed})
		return
	}
	in.pump()
}

// pump advances batch formation: flush immediately when the core is ready
// (amortisation target reached or flush instant arrived), otherwise make
// sure a virtual timer is armed at the core's next flush bound.
func (in *SchedInstance) pump() {
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
	at, ok := in.core.NextFlushAt()
	if !ok {
		return
	}
	in.arm(at)
}

// arm schedules the flush event at the given virtual instant unless an
// earlier (or equal) one is already pending. Later pending events are
// superseded via the generation counter — the bound only shrinks.
func (in *SchedInstance) arm(at time.Duration) {
	if in.flushArmed && in.armedAt <= at {
		return
	}
	in.gen++
	g := in.gen
	in.flushArmed = true
	in.armedAt = at
	in.eng.Schedule(at-in.eng.Now(), func() {
		if g != in.gen {
			return // superseded by an earlier arm or a flush
		}
		in.flushArmed = false
		in.pump()
	})
}

// startBatch assembles one WDRR batch at virtual `now`, answers expired
// entries, and schedules the batch's service completion.
func (in *SchedInstance) startBatch() {
	now := in.eng.Now()
	in.gen++ // invalidate any pending flush event; pump re-arms after
	in.flushArmed = false
	batch, expired := in.core.Assemble(now)
	for _, r := range expired {
		r.sp.Discard()
		r.done(Outcome{Latency: now - r.arrival, Err: ErrDeadlineExpired})
	}
	n := len(batch)
	if n == 0 {
		return
	}
	in.busy = true
	in.flushes++
	in.tracer.ObserveBatchFlush(n)
	totalLen := 0
	for _, r := range batch {
		r.sp.Observe(trace.StageSchedWait, now-r.arrival)
		r.sp.SetBatchSize(n)
		totalLen += r.sessionLen
	}

	// The batch's service time uses the mean session length of its
	// requests, exactly as Instance does: the encoder runs per request, the
	// shared catalog scan dominates.
	meanLen := totalLen / n
	if meanLen < 1 {
		meanLen = 1
	}
	cost := in.costFor(meanLen)
	enc, mips := splitService(cost, in.spec.BatchInference(cost, n, in.jit))
	service := enc + mips
	in.busyTotal += service
	in.eng.Schedule(service, func() {
		in.busy = false
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

func (in *SchedInstance) costFor(sessionLen int) model.Cost {
	if sessionLen < 1 {
		sessionLen = 1
	}
	if sessionLen >= len(in.costs) {
		sessionLen = len(in.costs) - 1
	}
	return in.costs[sessionLen]
}

// Stats snapshots every tenant's scheduling counters.
func (in *SchedInstance) Stats() []sched.TenantStats { return in.core.Stats() }

// Pending returns queued entries across all tenants (excluding in-flight).
func (in *SchedInstance) Pending() int { return in.core.Pending() }

// Flushes returns how many batches have been assembled.
func (in *SchedInstance) Flushes() int64 { return in.flushes }

// BusyTime returns accumulated device-busy virtual time.
func (in *SchedInstance) BusyTime() time.Duration { return in.busyTotal }
