package shard

import (
	"fmt"
	"time"

	"etude/internal/device"
	"etude/internal/metrics"
	"etude/internal/model"
	"etude/internal/sim"
	"etude/internal/trace"
)

// SimConfig configures a simulated scatter-gather fleet.
type SimConfig struct {
	// Device is the instance type of the shard workers.
	Device device.Spec
	// Model and ModelCfg define the deployment; per-shard service times are
	// the model's cost table sliced by the shard count (SliceCost).
	Model    string
	ModelCfg model.Config
	// Shards is S, the number of shard groups; every request fans out to
	// all of them.
	Shards int
	// Replicas is the number of workers per shard group (≥2 gives hedging
	// a backup to send to).
	Replicas int
	// JIT serves compiled execution plans on the workers.
	JIT bool
	// FlushEvery and MaxBatch configure the workers' batcher (GPU kinds;
	// defaults 2ms and the device's MaxBatch).
	FlushEvery time.Duration
	// MaxBatch caps the worker batcher (0 = the device's MaxBatch).
	MaxBatch int
	// Hedge configures tail-latency hedging. When the adaptive delay is
	// selected with no FallbackDelay, the fallback defaults to 2× the
	// expected per-shard service time from the cost model.
	Hedge HedgeConfig
	// Policy is the partial-result serving policy (zero value: strict
	// fail-fast), decided by the same gather core as the live gateway's,
	// group breakers included.
	Policy Policy
}

// SimFleet is the scatter-gather tier on the discrete-event engine: a
// frontend that pays the session-encoder service time once, scatters to one
// worker per shard group (per-shard service time = the sliced cost model),
// gathers the partial top-k completions, pays the explicit merge cost, and
// completes the request. Every scatter-gather decision — hedging, group
// breakers, the coverage floor — is the gather core's, the same core the
// live Gateway drives; SimFleet only drives it with engine events. An
// in-flight catalog scan cannot be aborted, so a cancelled loser still
// occupies its worker and its late answer is ignored.
//
// The frontend is modelled as dedicated capacity (pure delay): the queued
// resources are the shard workers, which is where sharding and hedging
// change the latency distribution. Workers are plain sim.Instances, so the
// chaos injector can crash or slow them individually — Instances exposes
// them in flat order (shard s, replica r at index s·Replicas+r).
type SimFleet struct {
	eng    *sim.Engine
	cfg    SimConfig
	groups [][]*sim.Instance
	rr     []int

	// encTimes is the frontend's encoder service time per session length —
	// the C-independent term the shard workers no longer pay.
	encTimes  []time.Duration
	mergeTime time.Duration

	core     *gatherCore
	waitHist *metrics.Histogram
	tracer   *trace.Tracer
}

// NewSimFleet builds the simulated tier: Shards × Replicas workers, each
// serving the per-shard slice of the model's cost table.
func NewSimFleet(eng *sim.Engine, cfg SimConfig) (*SimFleet, error) {
	if cfg.Shards < 1 || cfg.Replicas < 1 {
		return nil, fmt.Errorf("shard: fleet needs at least 1 shard and 1 replica, got %d×%d", cfg.Shards, cfg.Replicas)
	}
	if cfg.ModelCfg.CatalogSize < cfg.Shards {
		return nil, fmt.Errorf("shard: cannot split catalog of %d into %d shards", cfg.ModelCfg.CatalogSize, cfg.Shards)
	}
	if cfg.ModelCfg.MaxSessionLen == 0 {
		cfg.ModelCfg.MaxSessionLen = 50
	}
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = cfg.Device.MaxBatch
	}
	encTimes := make([]time.Duration, cfg.ModelCfg.MaxSessionLen+1)
	sliced := make([]model.Cost, len(encTimes))
	for l := 1; l < len(encTimes); l++ {
		c, err := model.EstimateCost(cfg.Model, cfg.ModelCfg, l)
		if err != nil {
			return nil, err
		}
		encTimes[l] = cfg.Device.ParallelInference(model.Cost{Catalog: c.Catalog, Dim: c.Dim, EncoderFLOPs: c.EncoderFLOPs}, cfg.JIT)
		sliced[l] = SliceCost(c, cfg.Shards)
	}
	if cfg.Hedge.Enabled && cfg.Hedge.Delay == 0 && cfg.Hedge.FallbackDelay == 0 {
		cfg.Hedge.FallbackDelay = 2 * cfg.Device.ParallelInference(sliced[1], cfg.JIT)
	}
	k := cfg.ModelCfg.TopK
	if k == 0 {
		k = model.DefaultTopK
	}
	f := &SimFleet{
		eng:       eng,
		cfg:       cfg,
		groups:    make([][]*sim.Instance, cfg.Shards),
		rr:        make([]int, cfg.Shards),
		encTimes:  encTimes,
		mergeTime: time.Duration(MergeOps(cfg.Shards, k) / cfg.Device.CoreFLOPs * float64(time.Second)),
		core:      newGatherCore(cfg.Shards, cfg.Policy, cfg.Hedge),
		waitHist:  metrics.NewHistogram(),
	}
	for s := range f.groups {
		f.groups[s] = make([]*sim.Instance, cfg.Replicas)
		for r := range f.groups[s] {
			in, err := sim.NewInstanceFromCosts(eng, cfg.Device, sliced, cfg.JIT, cfg.FlushEvery, cfg.MaxBatch)
			if err != nil {
				return nil, err
			}
			f.groups[s][r] = in
		}
	}
	return f, nil
}

// Instances returns the workers in flat order — shard s, replica r at
// index s·Replicas+r — the pod indexing chaos scenarios target.
func (f *SimFleet) Instances() []*sim.Instance {
	out := make([]*sim.Instance, 0, len(f.groups)*f.cfg.Replicas)
	for _, g := range f.groups {
		out = append(out, g...)
	}
	return out
}

// Stats returns the fleet's hedge counters.
func (f *SimFleet) Stats() *HedgeStats { return &f.core.stats }

// PartialStats returns the fleet's partial-serving counters.
func (f *SimFleet) PartialStats() *PartialStats { return &f.core.pstats }

// WaitSnapshot summarises the per-request scatter→gather wait — the
// sharded MIPS portion of the request, the term that divides by S.
func (f *SimFleet) WaitSnapshot() metrics.Snapshot { return f.waitHist.Snapshot() }

// SetTracer attaches a stage tracer (build it with the engine's clock:
// trace.New(trace.Options{Clock: eng.Now})). Spans record encoder-forward,
// shard-wait and shard-merge in virtual time; scatter is instantaneous in
// the simulator and therefore absent.
func (f *SimFleet) SetTracer(t *trace.Tracer) { f.tracer = t }

// Submit runs one request through the tier; done fires exactly once with
// the end-to-end outcome.
func (f *SimFleet) Submit(sessionLen int, done func(sim.Outcome)) {
	d := &simGather{f: f, t0: f.eng.Now(), sessionLen: sessionLen, done: done,
		sp: f.tracer.Start(""), primary: make([]*sim.Instance, len(f.groups))}
	enc := f.encTimes[max(1, min(sessionLen, len(f.encTimes)-1))]
	f.eng.Schedule(enc, func() {
		d.sp.Observe(trace.StageEncoderForward, enc)
		d.scatterAt = f.eng.Now()
		d.g = f.core.newGather(d)
		d.g.start(d.scatterAt)
	})
}

// simGather carries out one request's gather actions on the engine.
type simGather struct {
	f          *SimFleet
	g          *gather
	t0         time.Duration
	scatterAt  time.Duration
	sessionLen int
	done       func(sim.Outcome)
	sp         *trace.Span
	primary    []*sim.Instance
}

func (d *simGather) send(a, s int, backup bool) (func(), error) {
	// Primaries round-robin within the group; a backup goes to the first
	// replica that is not the primary's and does not advance the rotation —
	// otherwise a hedged request consumes two cursor steps and, in a
	// two-replica group, every primary lands on the same replica forever.
	group := d.f.groups[s]
	var in *sim.Instance
	switch {
	case !backup:
		in = group[d.f.rr[s]%len(group)]
		d.f.rr[s]++
		d.primary[s] = in
	case group[0] != d.primary[s]:
		in = group[0]
	case len(group) > 1:
		in = group[1]
	default:
		return nil, errSameReplica
	}
	// A pod that is already down fails inside SubmitOutcome; its answer
	// comes back as a later event, as a refused connection does live.
	sent := false
	in.SubmitOutcome(d.sessionLen, func(o sim.Outcome) {
		report := func() { d.g.outcome(a, d.f.eng.Now(), nil, o.Err) }
		if !sent {
			d.f.eng.Schedule(0, report)
		} else {
			report()
		}
	})
	sent = true
	return nil, nil
}

func (d *simGather) armHedge(s int, after time.Duration) {
	d.f.eng.Schedule(after, func() { d.g.hedgeFired(s, d.f.eng.Now(), noDeadline) })
}

// finish completes the request: at once when the gather failed, after the
// merge cost when it has a result.
func (d *simGather) finish(g *gather) {
	f := d.f
	if g.err != nil {
		total := f.eng.Now() - d.t0
		d.sp.FinishErrorTotal(total)
		d.done(sim.Outcome{Latency: total, Err: g.err})
		return
	}
	wait := f.eng.Now() - d.scatterAt
	f.waitHist.Record(wait)
	d.sp.Observe(trace.StageShardWait, wait)
	shards := len(f.groups)
	partial := g.answered < shards
	f.eng.Schedule(f.mergeTime, func() {
		if partial {
			d.sp.Observe(trace.StagePartialMerge, f.mergeTime)
		} else {
			d.sp.Observe(trace.StageShardMerge, f.mergeTime)
		}
		total := f.eng.Now() - d.t0
		d.sp.FinishTotal(total)
		d.done(sim.Outcome{Latency: total, Partial: partial, Coverage: float64(g.answered) / float64(shards)})
	})
}
