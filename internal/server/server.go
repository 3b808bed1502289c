// Package server implements ETUDE's lightweight inference server — the Go
// analogue of the paper's Actix-based Rust runtime. It serves PyTorch-style
// SBR models (internal/model) over HTTP with optional JIT-compiled execution
// paths, model deployment from an object-store bucket, and
// inference-duration metrics in response headers.
//
// Every request for a local model runs through one execution stage: a
// batcher (internal/batching) with Options.Workers executors. Unbatched
// serving, the paper's CPU configuration, is the batch of one: a request
// that finds an executor free runs at once on its own goroutine.
// Options.Batch and Options.Sched only change how batches form.
//
// The design goal is identical to the paper's: near-zero serving overhead.
// Requests are decoded, given an executor, executed in-process and encoded —
// no inter-process hand-off, no per-request interpreter, which is precisely
// what the TorchServe baseline (internal/torchserve) pays for.
//
// Observability: an optional trace.Tracer decomposes each request into
// pipeline stages (admission, queue wait, batch assembly, embedding lookup,
// encoder forward, MIPS top-k — or shard scatter/wait/merge when sharded
// retrieval is enabled — serialize); /metrics exposes the stage and
// end-to-end distributions plus outcome counters in Prometheus text format,
// and Options.Profiling mounts net/http/pprof. With no tracer configured
// the instrumentation costs one nil check per stage (see
// BenchmarkTracingOverhead).
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"etude/internal/batching"
	"etude/internal/buildinfo"
	"etude/internal/deploy"
	"etude/internal/httpapi"
	"etude/internal/metrics"
	"etude/internal/model"
	"etude/internal/objstore"
	"etude/internal/overload"
	"etude/internal/sched"
	"etude/internal/shard"
	"etude/internal/topk"
	"etude/internal/trace"
)

// Options configures a Server.
type Options struct {
	// Workers is the number of the batcher's executors: how many batches
	// (batches of one when unbatched) run at once (default: GOMAXPROCS).
	Workers int
	// JIT serves JIT-compiled execution plans when the model supports them
	// (buffer reuse, fused steps); models that cannot be compiled — in the
	// paper, LightSANs — transparently fall back to eager execution.
	JIT bool
	// Batch enables request batching with the given config. Nil serves
	// batches of one (the CPU serving configuration).
	Batch *batching.Config
	// Sched enables the SLO-aware multi-tenant scheduler (internal/sched)
	// in place of the plain batcher: requests are keyed by their X-Tenant
	// header into per-tenant queues drained by weighted deficit round
	// robin, with deadline-aware flush timing and an amortisation-driven
	// target batch size. Mutually exclusive with Batch and Gateway.
	Sched *sched.Config
	// MaxPending bounds requests admitted but not yet answered (admission
	// control): requests beyond the bound are shed with 429 + Retry-After
	// instead of queueing without limit. 0 defaults to 16× Workers;
	// negative disables the bound (the original unbounded behaviour).
	// When Limiter is set this static bound is only a backstop — the
	// adaptive limit is the primary admission signal.
	MaxPending int
	// Limiter, when non-nil, is the AIMD adaptive concurrency limiter used
	// as the primary admission signal: requests past the learned in-flight
	// limit are shed with 429, and every admitted request's latency (or
	// congestion outcome) trains the limit. Replaces hand-tuning MaxPending
	// against the deployment's capacity.
	Limiter *overload.Limiter
	// CoDel, when non-nil, sheds queued work whose sojourn time shows a
	// standing queue, judged when the work could start: the wait for an
	// executor when unbatched, the wait in the buffer when Batch or Sched
	// is set (a Batch config's own CoDel takes precedence). Shed requests
	// answer 503.
	CoDel *overload.CoDel
	// DegradeAt is the pending-request watermark at which prediction
	// requests are answered from the precomputed fallback list instead of
	// the model, flagged with the X-Degraded header (graceful
	// degradation). 0 disables degradation. Set it below MaxPending so the
	// server degrades before it sheds.
	DegradeAt int
	// Tracer records per-request stage spans when non-nil. Nil (the
	// default) disables tracing at near-zero cost.
	Tracer *trace.Tracer
	// Profiling mounts net/http/pprof under /debug/pprof/ on the server's
	// handler. Off by default: profiling endpoints on a production port are
	// opt-in.
	Profiling bool
	// MetricsExtra, when non-nil, is invoked while rendering /metrics so
	// surrounding infrastructure (e.g. the cluster balancer's breaker
	// state, a shard gateway's hedge counters) can append its own families
	// to the exposition.
	MetricsExtra func(*metrics.PromBuilder)
	// Shards, when greater than 1, serves retrieval through the in-process
	// scatter-gather tier (internal/shard): the catalog embedding matrix
	// is partitioned into Shards contiguous shards, each request's session
	// representation is scored by one goroutine per shard, and the partial
	// top-k lists are merged into the exact global top-k — bit-identical
	// to unsharded serving. Requires a model exposing the encoder/MIPS
	// decomposition (model.Encoder); the pool executes eagerly, so JIT is
	// ignored on this path. Mutually exclusive with Partition.
	Shards int
	// Partition, when non-nil, makes this server one shard worker of a
	// cross-pod scatter-gather fleet: the full encoder runs, but the MIPS
	// stage scans only the partition's catalog rows (item ids stay
	// global), and responses carry the partial top-k for a shard.Gateway
	// to merge. Mutually exclusive with Shards.
	Partition *shard.Partition
	// Gateway, when non-nil, makes this server the scatter-gather frontend
	// of a cross-pod sharded fleet: /predictions fans out through the
	// gateway instead of running a local model (pass a nil model), and
	// responses carry the gateway's coverage metadata (X-Coverage, plus
	// X-Degraded: partial under partial-result serving). Mutually exclusive
	// with Shards, Partition and Batch.
	Gateway *shard.Gateway
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.MaxPending == 0 {
		o.MaxPending = 16 * o.Workers
	}
	return o
}

// predictor is one executor's inference function. The span is nil when
// tracing is disabled; implementations must treat that as the fast path.
type predictor func(session []int64, sp *trace.Span) []topk.Result

// batchItem is one request travelling through the batcher: the session, the
// runtime pinned at admission (the batch runs it on that runtime's
// predictors), its span and enqueue timestamp so the batch can attribute
// its waits to the right request, and its tenant label (queued on only
// when Options.Sched is set). runBatch answers in place: recs, and the size
// of the batch it was served in (for the X-Batch-Size header).
type batchItem struct {
	session []int64
	rt      *modelRuntime
	sp      *trace.Span
	enq     time.Duration
	tenant  string
	recs    []topk.Result
	size    int
}

// modelRuntime is one loaded model version and everything derived from it:
// the per-worker predictor pool (compiled plans hold private buffers and
// must not be shared), the degraded-mode fallback, the in-process shard
// tier, and the version-scoped health counters a canary controller reads.
// Hot-swapping a release installs a whole fresh runtime behind one atomic
// pointer: requests in flight keep the runtime they loaded (its pool
// outlives the swap and is reclaimed by GC once they drain), new requests
// see the new one — zero dropped requests and no lock on the serving path.
type modelRuntime struct {
	mdl       model.Model // nil in static and gateway modes
	pool      chan predictor
	fallback  []topk.Result
	shardPool *shard.Pool
	shardEnc  model.Encoder
	jitActive bool
	// version is the release serving through this runtime (0 when the model
	// did not come from a release store).
	version int
	// served/errs/lat are charged to this runtime only: a swap opens a
	// fresh observation window, so canary health compares versions without
	// the incumbent's history diluting the signal.
	served atomic.Int64
	errs   atomic.Int64
	lat    *metrics.Histogram
}

// Server serves one deployed model (or a static response) over HTTP.
type Server struct {
	opts   Options
	tracer *trace.Tracer
	// rt is the serving runtime — model, predictor pool, version counters —
	// swapped atomically by ApplyRelease. Never nil after construction.
	rt atomic.Pointer[modelRuntime]
	// batcher runs every local-model request: batches of one unless
	// Options.Batch (a one-tenant FIFO) or Options.Sched (per-tenant WDRR
	// queues) is set; nil in static and gateway modes. waitStage is the
	// stage its enqueue→start wait is charged to: queue-wait, batch-assembly
	// or sched-wait, so tenant experiments can pin tail movement on
	// scheduling. Its zero value, queue-wait, is the unbatched case.
	batcher   *batching.Batcher[batchItem, batchItem]
	waitStage trace.Stage
	// releases is the versioned store behind ApplyRelease (nil unless the
	// server was built by LoadFromReleases); watcher polls it for fleet-wide
	// promotions; swapMu serialises swaps (the serving path never takes it).
	releases *deploy.Store
	watcher  *deploy.Watcher
	swapMu   sync.Mutex
	// swaps counts successful hot-swaps; verifyFailures counts releases
	// rejected at load time (checksum mismatch, undecodable weights) — each
	// such release is quarantined in the store and never serves.
	swaps          atomic.Int64
	verifyFailures atomic.Int64
	ready          atomic.Bool
	// draining flips when BeginDrain is called: readiness probes answer 503
	// (routers stop sending new work) while the process stays live and
	// admitted predictions run to completion.
	draining atomic.Bool
	// pending counts admitted-but-unanswered prediction requests — the
	// admission-control and degradation-watermark signal.
	pending atomic.Int64
	// shed and degraded count resilience actions for tests and ops; served
	// counts completed 200s (the /metrics request counter).
	shed     atomic.Int64
	degraded atomic.Int64
	served   atomic.Int64
	// deadlineExpired counts requests dropped because their propagated
	// deadline passed while they queued (504); codelDropped counts requests
	// shed by the CoDel queue discipline (503).
	deadlineExpired atomic.Int64
	codelDropped    atomic.Int64
	// gw is the scatter-gather frontend when Options.Gateway is set; the
	// server then serves merges, not a local model.
	gw *shard.Gateway
}

// New builds a server for m. The model is wrapped per worker: compiled
// execution plans hold private buffers and must not be shared. With
// Options.Gateway set the model must be nil: the server fronts a sharded
// fleet and every prediction is a gateway scatter-gather merge.
func New(m model.Model, opts Options) (*Server, error) {
	return newServer(m, opts, 0)
}

func newServer(m model.Model, opts Options, version int) (*Server, error) {
	if opts.Gateway != nil {
		if m != nil {
			return nil, fmt.Errorf("server: Gateway mode fronts remote shard workers; pass a nil model")
		}
		if opts.Shards > 1 || opts.Partition != nil || opts.Batch != nil || opts.Sched != nil {
			return nil, fmt.Errorf("server: Gateway is mutually exclusive with Shards, Partition, Batch and Sched")
		}
		opts = opts.withDefaults()
		s := &Server{opts: opts, tracer: opts.Tracer, gw: opts.Gateway}
		s.rt.Store(&modelRuntime{lat: metrics.NewHistogram()})
		// The gateway traces the request (scatter/wait/merge stages); the
		// handler must not open a second span per request on the same tracer.
		s.gw.SetTracer(opts.Tracer)
		s.ready.Store(true)
		return s, nil
	}
	if m == nil {
		return nil, fmt.Errorf("server: nil model")
	}
	if opts.Batch != nil && opts.Sched != nil {
		return nil, fmt.Errorf("server: Batch and Sched are mutually exclusive — the scheduler does its own batching")
	}
	opts = opts.withDefaults()
	s := &Server{opts: opts, tracer: opts.Tracer}
	rt, err := buildRuntime(m, opts, version)
	if err != nil {
		return nil, err
	}
	s.rt.Store(rt)
	// A batch of one is full on arrival, so its flush interval never applies.
	cfg, codel := sched.Config{MaxBatch: 1, FlushEvery: time.Millisecond}, opts.CoDel
	var tenantOf func(batchItem) string
	switch {
	case opts.Batch != nil:
		cfg, s.waitStage = opts.Batch.Sched(), trace.StageBatchAssembly
		if opts.Batch.CoDel != nil {
			codel = opts.Batch.CoDel
		}
	case opts.Sched != nil:
		cfg, s.waitStage = *opts.Sched, trace.StageSchedWait
		tenantOf = func(it batchItem) string { return it.tenant }
	}
	if s.batcher, err = batching.NewTenants(cfg, codel, tenantOf, opts.Workers, s.runBatch); err != nil {
		return nil, err
	}
	s.ready.Store(true)
	return s, nil
}

// buildRuntime materialises the full serving state for one model: partition
// wrapping, the in-process shard tier, the per-worker predictor pool, and
// the degraded-mode fallback. New uses it once at startup; ApplyRelease
// uses it to construct the replacement runtime off the serving path before
// a single atomic swap installs it.
func buildRuntime(m model.Model, opts Options, version int) (*modelRuntime, error) {
	if opts.Shards > 1 && opts.Partition != nil {
		return nil, fmt.Errorf("server: Shards and Partition are mutually exclusive")
	}
	if opts.Partition != nil {
		enc, ok := m.(model.Encoder)
		if !ok {
			return nil, fmt.Errorf("server: model %s does not expose the encoder/MIPS decomposition needed for partition serving", m.Name())
		}
		pm, err := shard.PartitionModel(enc, *opts.Partition)
		if err != nil {
			return nil, err
		}
		m = pm
	}
	rt := &modelRuntime{
		mdl:     m,
		pool:    make(chan predictor, opts.Workers),
		version: version,
		lat:     metrics.NewHistogram(),
	}
	if opts.Shards > 1 {
		enc, ok := m.(model.Encoder)
		if !ok {
			return nil, fmt.Errorf("server: model %s does not expose the encoder/MIPS decomposition needed for sharded retrieval", m.Name())
		}
		pool, err := shard.NewPool(enc.ItemEmbeddings(), opts.Shards)
		if err != nil {
			return nil, err
		}
		rt.shardPool = pool
		rt.shardEnc = enc
	}
	for i := 0; i < opts.Workers; i++ {
		rt.pool <- rt.newPredictor(opts.JIT)
	}
	// Precompute the degraded-mode fallback once: a popularity-style static
	// recommendation list that costs a map lookup to serve, not a model
	// execution.
	if opts.DegradeAt > 0 {
		rt.fallback = m.Recommend([]int64{0})
	}
	return rt, nil
}

// Shed returns how many requests admission control refused (429).
func (s *Server) Shed() int64 { return s.shed.Load() }

// DeadlineExpired returns how many requests were dropped because their
// propagated deadline passed while they queued (504).
func (s *Server) DeadlineExpired() int64 { return s.deadlineExpired.Load() }

// CoDelDropped returns how many requests the CoDel queue discipline shed.
func (s *Server) CoDelDropped() int64 { return s.codelDropped.Load() }

// BeginDrain moves the server into the draining state: the readiness probe
// (/ping) starts answering 503 so balancers and service routers take the
// pod out of rotation, while the liveness probe (/live) keeps answering 200
// and prediction requests — including ones that race past the routing
// change — are still served. Idempotent.
func (s *Server) BeginDrain() { s.draining.Store(true) }

// Draining reports whether BeginDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// InFlight returns the number of admitted-but-unanswered prediction
// requests — the quantity a graceful shutdown waits on.
func (s *Server) InFlight() int64 { return s.pending.Load() }

// NewStatic builds the "empty response, no computation" server used by the
// infrastructure validation experiment (paper Fig 2).
func NewStatic() *Server {
	s := &Server{opts: Options{}.withDefaults()}
	s.rt.Store(&modelRuntime{lat: metrics.NewHistogram()})
	s.ready.Store(true)
	return s
}

// LoadFromBucket deploys a model from a serialised manifest in a bucket —
// the paper's "deploy serialised PyTorch models from Google storage
// buckets".
func LoadFromBucket(b objstore.Bucket, key string, opts Options) (*Server, error) {
	data, err := b.Get(key)
	if err != nil {
		return nil, fmt.Errorf("server: fetching model artifact: %w", err)
	}
	manifest, err := model.UnmarshalManifest(data)
	if err != nil {
		return nil, err
	}
	m, err := manifest.Load()
	if err != nil {
		return nil, err
	}
	if manifest.WeightsKey != "" {
		weights, err := b.Get(manifest.WeightsKey)
		if err != nil {
			return nil, fmt.Errorf("server: fetching weights: %w", err)
		}
		if err := model.LoadWeights(m, weights); err != nil {
			return nil, fmt.Errorf("server: loading weights: %w", err)
		}
	}
	return New(m, opts)
}

// LoadFromReleases deploys from a versioned release store: version 0 loads
// the store's CURRENT pointer, a positive version pins a specific release
// (canary pods are deployed this way). When watch > 0 the server polls the
// store at that interval and hot-swaps onto newly promoted releases — the
// pod-side half of fleet-wide promotion.
func LoadFromReleases(store *deploy.Store, version int, watch time.Duration, opts Options) (*Server, error) {
	m, rel, err := store.LoadVersion(version)
	if err != nil {
		return nil, err
	}
	s, err := newServer(m, opts, rel.Version)
	if err != nil {
		return nil, err
	}
	s.releases = store
	if watch > 0 {
		s.watcher = deploy.Watch(store, watch,
			func() int { return s.rt.Load().version },
			func(rel deploy.Release) error { return s.ApplyRelease(rel.Version) })
	}
	return s, nil
}

// ApplyRelease loads release version (0 = CURRENT) from the server's
// release store, verifies every artifact checksum, builds a complete
// replacement runtime off the serving path, and installs it with one atomic
// swap: requests in flight finish on the runtime they started with, new
// requests see the new version — zero dropped requests. On any
// verification or deserialisation failure the incumbent keeps serving, the
// failure is counted, and the release is quarantined in the store
// (best-effort) so no watcher elsewhere retries the same poison.
func (s *Server) ApplyRelease(version int) error {
	if s.releases == nil {
		return fmt.Errorf("server: no release store configured")
	}
	// Serialise swaps; the serving path never takes this lock.
	s.swapMu.Lock()
	defer s.swapMu.Unlock()
	m, rel, err := s.releases.LoadVersion(version)
	if err != nil {
		// A release whose record exists but whose content failed to verify
		// or decode is poison: quarantine it so the rest of the fleet stops
		// retrying it. Absent releases and already-quarantined ones are not
		// new failures.
		if rel.Version != 0 && !errors.Is(err, deploy.ErrQuarantined) {
			s.verifyFailures.Add(1)
			_ = s.releases.Quarantine(rel.Version, err.Error())
		}
		return err
	}
	if rel.Version == s.rt.Load().version {
		return nil
	}
	rt, err := buildRuntime(m, s.opts, rel.Version)
	if err != nil {
		s.verifyFailures.Add(1)
		_ = s.releases.Quarantine(rel.Version, err.Error())
		return err
	}
	s.rt.Store(rt)
	s.swaps.Add(1)
	return nil
}

func (rt *modelRuntime) newPredictor(jit bool) predictor {
	if rt.shardPool != nil {
		// Sharded retrieval: encode on the worker, scatter the representation
		// across the pool's shard goroutines, merge the exact global top-k.
		// The pool executes eagerly (compiled plans fuse encoder and scoring,
		// which a scatter cannot split), so JIT is ignored here.
		enc, pool, k := rt.shardEnc, rt.shardPool, rt.shardEnc.Config().TopK
		return func(session []int64, sp *trace.Span) []topk.Result {
			if sp == nil {
				return pool.TopK(enc.Encode(session), k)
			}
			t0 := sp.Now()
			rep := enc.Encode(session)
			sp.ObserveSince(trace.StageEncoderForward, t0)
			return pool.TopKSpan(rep, k, sp)
		}
	}
	if jit {
		if jc, ok := rt.mdl.(model.JITCompilable); ok {
			rt.jitActive = true
			compiled := jc.CompiledRecommend()
			return func(session []int64, sp *trace.Span) []topk.Result {
				if sp == nil {
					return compiled(session)
				}
				// Compiled plans fuse embedding lookup, encoder and scoring
				// into one closure; the fused time is attributed to
				// encoder-forward (run breakdowns with JIT off for the full
				// split).
				t0 := sp.Now()
				out := compiled(session)
				sp.ObserveSince(trace.StageEncoderForward, t0)
				return out
			}
		}
	}
	m := rt.mdl
	return func(session []int64, sp *trace.Span) []topk.Result {
		if sp == nil {
			return m.Recommend(session)
		}
		out, tm := model.RecommendStaged(m, session, sp.Now)
		sp.Observe(trace.StageEmbeddingLookup, tm.EmbeddingLookup)
		sp.Observe(trace.StageEncoderForward, tm.Encoder)
		sp.Observe(trace.StageMIPSTopK, tm.TopK)
		return out
	}
}

// Model returns the deployed model (nil in static mode).
func (s *Server) Model() model.Model { return s.rt.Load().mdl }

// JITActive reports whether the serving runtime uses compiled execution
// plans (false when the model refused compilation or JIT is off).
func (s *Server) JITActive() bool { return s.rt.Load().jitActive }

// ModelVersion returns the release version currently serving (0 when the
// model did not come from a release store).
func (s *Server) ModelVersion() int { return s.rt.Load().version }

// Swaps returns how many hot-swaps have completed.
func (s *Server) Swaps() int64 { return s.swaps.Load() }

// VerifyFailures returns how many releases were rejected at load time
// (checksum mismatch or undecodable artifacts) without ever serving.
func (s *Server) VerifyFailures() int64 { return s.verifyFailures.Load() }

// Gateway returns the scatter-gather frontend (nil unless Options.Gateway
// was set).
func (s *Server) Gateway() *shard.Gateway { return s.gw }

// runBatch executes a batch on one executor, item by item — the CPU
// analogue of one fused accelerator kernel sequence — and answers in place.
// Each item runs on a predictor of the runtime pinned at its admission, so
// a hot swap between admission and execution cannot mix versions, and a
// predictor goes back to the pool it came from, which keeps a retired
// runtime's pool intact while it drains. Per item it attributes the
// enqueue→start wait (waitStage) and queue-wait (head-of-line inside the
// batch) before the model stages.
func (s *Server) runBatch(items []batchItem) []batchItem {
	s.tracer.ObserveBatchFlush(len(items))
	start := s.tracer.Now()
	var rt *modelRuntime
	var p predictor
	for i := range items {
		it := &items[i]
		if it.rt != rt {
			if rt != nil {
				rt.pool <- p
			}
			rt = it.rt
			p = <-rt.pool
		}
		if it.sp != nil {
			it.sp.Observe(s.waitStage, start-it.enq)
			it.sp.Observe(trace.StageQueueWait, it.sp.Now()-start)
			it.sp.SetBatchSize(len(items))
		}
		it.recs, it.size = p(it.session, it.sp), len(items)
	}
	rt.pool <- p
	return items
}

// TenantStats snapshots the batcher's per-tenant counters (nil in static
// and gateway modes; one default tenant unless Options.Sched is set).
func (s *Server) TenantStats() []sched.TenantStats {
	if s.batcher == nil {
		return nil
	}
	return s.batcher.Stats()
}

// Close releases the release watcher and batcher, if any.
func (s *Server) Close() {
	if s.watcher != nil {
		s.watcher.Close()
	}
	if s.batcher != nil {
		s.batcher.Close()
	}
}

// Handler returns the HTTP routes: POST /predictions, GET /ping
// (readiness), GET /live (liveness), GET /metrics (Prometheus text), and —
// when Options.Profiling is set — /debug/pprof/.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(httpapi.ReadyPath, s.handlePing)
	mux.HandleFunc(httpapi.LivePath, s.handleLive)
	mux.HandleFunc(httpapi.PredictPath, s.handlePredict)
	mux.HandleFunc(httpapi.MetricsPath, s.handleMetrics)
	mux.HandleFunc(httpapi.DeployPath, s.handleDeploy)
	if s.opts.Profiling {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return mux
}

func (s *Server) handlePing(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	if !s.ready.Load() {
		http.Error(w, "model loading", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write([]byte("pong")); err != nil {
		return
	}
}

// handleDeploy is the admin hot-swap endpoint: POST {"version": N} loads,
// verifies and atomically swaps onto release N (0 = the store's CURRENT
// pointer). A release failing checksum or deserialisation answers 422 and
// never serves a request; the incumbent version keeps serving throughout.
func (s *Server) handleDeploy(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "use POST", http.StatusMethodNotAllowed)
		return
	}
	if s.releases == nil {
		http.Error(w, "no release store configured", http.StatusNotFound)
		return
	}
	var req httpapi.DeployRequest
	if err := httpapi.ReadJSON(r.Body, &req); err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	switch err := s.ApplyRelease(req.Version); {
	case err == nil:
		httpapi.WriteJSON(w, http.StatusOK, httpapi.DeployResponse{Version: s.ModelVersion()})
	case errors.Is(err, deploy.ErrNotFound), errors.Is(err, deploy.ErrNoCurrent):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, deploy.ErrQuarantined):
		http.Error(w, err.Error(), http.StatusConflict)
	default:
		// Checksum mismatch, undecodable weights, wrong shape: the release
		// exists but must not serve.
		http.Error(w, err.Error(), http.StatusUnprocessableEntity)
	}
}

// handleLive is the liveness probe: 200 as long as the process serves HTTP,
// draining or not. Only a dead process fails it — which is exactly the
// signal a supervisor restarts on.
func (s *Server) handleLive(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("alive"))
}

// handleMetrics renders the Prometheus text exposition: request/stage
// latency summaries (seconds), outcome counters, queue depth and drain
// state, plus whatever Options.MetricsExtra contributes.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	b := metrics.NewPromBuilder()
	rt := s.rt.Load()
	bi := buildinfo.Get()
	b.Gauge("etude_build_info", "Build identity of the serving binary (value is always 1).", 1,
		metrics.Label{Name: "git_sha", Value: bi.ShortSHA()},
		metrics.Label{Name: "go_version", Value: bi.GoVersion})
	b.Counter("etude_requests_total", "Prediction requests answered 200.", float64(s.served.Load()))
	b.Counter("etude_shed_total", "Requests refused by admission control (429).", float64(s.shed.Load()))
	b.Counter("etude_degraded_total", "Responses served by the degraded fallback path.", float64(s.degraded.Load()))
	b.Counter("etude_deadline_expired_total", "Requests dropped because their deadline passed while queued (504).", float64(s.deadlineExpired.Load()))
	b.Counter("etude_codel_dropped_total", "Requests shed by the CoDel queue discipline.", float64(s.codelDropped.Load()))
	limit := 0.0
	if s.opts.Limiter != nil {
		limit = float64(s.opts.Limiter.Limit())
	}
	b.Gauge("etude_inflight_limit", "Adaptive in-flight limit (0 = static admission only).", limit)
	b.Gauge("etude_pending_requests", "Admitted but unanswered prediction requests.", float64(s.pending.Load()))
	b.Gauge("etude_queue_depth", "Server queue depth (batcher queue when batching).", float64(s.queueDepth()))
	drain := 0.0
	if s.draining.Load() {
		drain = 1
	}
	b.Gauge("etude_draining", "1 while the server is draining (readiness failing).", drain)
	b.Gauge("etude_model_version", "Release version currently serving (0 = unversioned deployment).", float64(rt.version))
	b.Counter("etude_model_swaps_total", "Hot-swaps onto a new release completed without dropping a request.", float64(s.swaps.Load()))
	b.Counter("etude_artifact_verify_failures_total", "Releases rejected at load time (checksum mismatch, undecodable artifacts) without serving.", float64(s.verifyFailures.Load()))
	if rt.version > 0 {
		// Version-scoped health: counters and latency charged to the serving
		// runtime only, reset by each swap. The canary controller compares
		// these families across the canary and baseline cohorts.
		vl := metrics.Label{Name: "version", Value: strconv.Itoa(rt.version)}
		b.Counter("etude_version_requests_total", "Requests answered 200 by the serving version (window since swap).", float64(rt.served.Load()), vl)
		b.Counter("etude_version_errors_total", "Error responses charged to the serving version (window since swap).", float64(rt.errs.Load()), vl)
		if snap := rt.lat.Snapshot(); snap.Count > 0 {
			b.Summary("etude_version_request_seconds", "Inference latency of the serving version (window since swap).", snap, vl)
		}
	}
	for _, st := range s.TenantStats() {
		lbl := metrics.Label{Name: "tenant", Value: st.Tenant}
		b.Counter("etude_tenant_served_total", "Requests served, by tenant (scheduler goodput).", float64(st.Served), lbl)
		b.Counter("etude_tenant_shed_total", "Requests refused at the tenant queue bound (429), by tenant.", float64(st.Shed), lbl)
		b.Counter("etude_tenant_deadline_miss_total", "Requests dropped at batch assembly after their deadline passed (504), by tenant.", float64(st.Expired), lbl)
		b.Gauge("etude_tenant_pending", "Queued requests, by tenant.", float64(st.Pending), lbl)
		b.Gauge("etude_tenant_weight", "Configured WDRR weight, by tenant.", float64(st.Weight), lbl)
	}
	if rt.shardPool != nil {
		b.Gauge("etude_shards", "In-process retrieval shard count.", float64(rt.shardPool.Shards()))
	}
	if s.gw != nil {
		b.Gauge("etude_shards", "Shard groups behind the scatter-gather gateway.", float64(s.gw.Shards()))
		s.gw.WriteMetrics(b)
	}
	if tr := s.tracer; tr != nil {
		if total := tr.TotalSnapshot(); total.Count > 0 {
			b.Summary("etude_request_seconds", "End-to-end request latency.", total)
		}
		for _, st := range trace.Stages() {
			if snap := tr.StageSnapshot(st); snap.Count > 0 {
				b.Summary("etude_stage_seconds", "Per-stage request latency.", snap,
					metrics.Label{Name: "stage", Value: st.String()})
			}
		}
		flushes, meanSize, maxSize := tr.BatchStats()
		if flushes > 0 {
			b.Counter("etude_batch_flushes_total", "Batch dispatches.", float64(flushes))
			b.Gauge("etude_batch_size_mean", "Mean batch size at flush.", meanSize)
			b.Gauge("etude_batch_size_max", "Largest batch dispatched.", float64(maxSize))
		}
	}
	if s.opts.MetricsExtra != nil {
		s.opts.MetricsExtra(b)
	}
	w.Header().Set("Content-Type", metrics.PromContentType)
	_, _ = io.WriteString(w, b.String())
}

// queueDepth returns the server's pending-work signal: the batcher queue
// when batching, the admitted-request count otherwise.
func (s *Server) queueDepth() int {
	if s.opts.Batch != nil || s.opts.Sched != nil {
		return s.batcher.Pending()
	}
	return int(s.pending.Load())
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	// Echo the request id on every path — success, shed, malformed,
	// cancelled — so any response in a chaos run is attributable to the
	// client-side trace that produced it.
	reqID := r.Header.Get(httpapi.HeaderRequestID)
	if reqID != "" {
		w.Header().Set(httpapi.HeaderRequestID, reqID)
	}
	// The tenant label is echoed the same way, on every response path —
	// success, shed, degraded, partial — so per-tenant accounting on the
	// client side never loses a response.
	tenant := r.Header.Get(httpapi.HeaderTenant)
	if tenant != "" {
		w.Header().Set(httpapi.HeaderTenant, tenant)
	}
	if r.Method != http.MethodPost {
		http.Error(w, "use POST", http.StatusMethodNotAllowed)
		return
	}
	// Deadline propagation: the client's absolute X-Deadline joins the
	// request context so every stage below — admission, the start of the
	// request's batch — can check the remaining budget. Work whose caller
	// has already given up is dropped with 504 instead of computed.
	if dl, ok := httpapi.DeadlineHeader(r.Header); ok {
		ctx, cancel := context.WithDeadline(r.Context(), dl)
		defer cancel()
		r = r.WithContext(ctx)
		if ctx.Err() == context.DeadlineExceeded {
			s.deadlineExpired.Add(1)
			http.Error(w, "deadline exceeded in queue", http.StatusGatewayTimeout)
			return
		}
	}
	// Admission control: past the pending bound the server sheds with 429 +
	// Retry-After instead of queueing without limit — a saturated server
	// answering "not now" fast beats one answering everything late.
	if s.opts.MaxPending > 0 && s.pending.Load() >= int64(s.opts.MaxPending) {
		s.shed.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, "server overloaded, retry later", http.StatusTooManyRequests)
		return
	}
	// Adaptive admission: the AIMD limiter bounds in-flight work at the
	// learned capacity; the static bound above is only its backstop.
	// `congested` marks outcomes that feed the limiter a drop signal
	// instead of an honest latency.
	congested := false
	if lim := s.opts.Limiter; lim != nil {
		if !lim.TryAcquire() {
			s.shed.Add(1)
			w.Header().Set("Retry-After", "1")
			http.Error(w, "server overloaded (adaptive limit), retry later", http.StatusTooManyRequests)
			return
		}
		limStart := time.Now()
		defer func() { lim.Release(time.Since(limStart), congested) }()
	}
	s.pending.Add(1)
	defer s.pending.Add(-1)

	// Pin the serving runtime for the whole request: a hot-swap landing
	// mid-request must not mix versions, and the version header lets clients
	// (and the canary controller's blast-radius accounting) attribute every
	// response — success or error — to the release that produced it.
	rt := s.rt.Load()
	if rt.version > 0 {
		w.Header().Set(httpapi.HeaderModelVersion, strconv.Itoa(rt.version))
	}

	// Gateway mode: the gateway opens the request's span itself (scatter,
	// wait, merge, error outcomes); a handler span on the same tracer would
	// double-count every request.
	var sp *trace.Span
	if s.gw == nil {
		sp = s.tracer.Start(reqID)
	}
	admStart := sp.Now()

	var req httpapi.PredictRequest
	if err := httpapi.ReadJSON(r.Body, &req); err != nil {
		sp.Discard()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if reqID == "" && req.RequestID != "" {
		// Body-carried id (header-stripping transports): still echoed.
		reqID = req.RequestID
		w.Header().Set(httpapi.HeaderRequestID, reqID)
	}
	if tenant == "" && req.Tenant != "" {
		// Body-carried tenant label: same header-stripping fallback.
		tenant = req.Tenant
		w.Header().Set(httpapi.HeaderTenant, tenant)
	}
	if err := req.Validate(); err != nil {
		sp.Discard()
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	sp.ObserveSince(trace.StageAdmission, admStart)

	start := time.Now()
	var recs []topk.Result
	var err error
	batch := 1
	degraded := false
	switch {
	case s.gw != nil:
		var pr *shard.PartialResult
		if pr, err = s.gw.PredictPartial(r.Context(), req); err == nil {
			recs = pr.Recs
			httpapi.SetCoverageHeader(w.Header(), pr.Coverage())
			if pr.Partial() {
				w.Header().Set(httpapi.HeaderDegraded, httpapi.DegradedPartial)
				s.degraded.Add(1)
			}
		}
	case rt.mdl == nil:
		// Static mode: no inference at all.
	case s.opts.DegradeAt > 0 && s.queueDepth() > s.opts.DegradeAt:
		// Graceful degradation: past the watermark, answer from the
		// precomputed fallback list instead of joining the model queue.
		recs = rt.fallback
		degraded = true
		s.degraded.Add(1)
	default:
		var it batchItem
		it, err = s.batcher.Submit(r.Context(), batchItem{session: req.Items, rt: rt, sp: sp, enq: sp.Now(), tenant: tenant})
		recs, batch = it.recs, it.size
	}
	if err != nil {
		// The batcher has let go of the span by the time Submit returns.
		sp.Discard()
		if !errors.Is(err, context.Canceled) {
			rt.errs.Add(1)
		}
		congested = s.batchError(w, err)
		return
	}
	inference := time.Since(start)

	serStart := sp.Now()
	resp := httpapi.PredictResponse{
		Items:  make([]int64, len(recs)),
		Scores: make([]float32, len(recs)),
	}
	for i, rec := range recs {
		if rec.Score-rec.Score != 0 {
			// NaN or ±Inf: JSON cannot carry it, and the encoder would fail
			// after the 200 status line is already out. Refuse before
			// anything is written.
			rt.errs.Add(1)
			sp.FinishError()
			http.Error(w, fmt.Sprintf("model returned a non-finite score for item %d", rec.Item), http.StatusInternalServerError)
			return
		}
		resp.Items[i] = rec.Item
		resp.Scores[i] = rec.Score
	}
	httpapi.SetDurationHeaders(w.Header(), inference, batch)
	if degraded {
		w.Header().Set(httpapi.HeaderDegraded, "1")
	}
	httpapi.WriteJSON(w, http.StatusOK, resp)
	s.served.Add(1)
	rt.served.Add(1)
	rt.lat.Record(inference)
	sp.ObserveSince(trace.StageSerialize, serStart)
	sp.Finish()
}

// batchError answers a request the batcher or the gateway did not serve —
// the server's one error→status mapping — and reports whether the outcome
// is a congestion signal for the adaptive limiter.
func (s *Server) batchError(w http.ResponseWriter, err error) (congested bool) {
	status := http.StatusBadGateway
	var ce *shard.CoverageError
	var se *httpapi.StatusError
	switch {
	case errors.Is(err, sched.ErrShed):
		// Tenant queue at its bound: the scheduler's per-tenant admission
		// control, answered like the global one.
		status = http.StatusTooManyRequests
		s.shed.Add(1)
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, context.DeadlineExceeded):
		// Covers batching.ErrDeadlineExpired (dropped at flush), the
		// request context's own deadline firing first, and a gateway
		// scatter that ran out of budget.
		status = http.StatusGatewayTimeout
		s.deadlineExpired.Add(1)
		congested = true
	case errors.Is(err, context.Canceled):
		// The client hung up (nginx's "client closed request"): nobody
		// reads the answer, and it says nothing about the server's load.
		status = httpapi.StatusClientClosedRequest
	case errors.Is(err, batching.ErrCoDelDropped):
		status = http.StatusServiceUnavailable
		s.codelDropped.Add(1)
		congested = true
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, batching.ErrClosed), errors.As(err, &ce):
		// Closed batcher, or a fleet below its coverage floor that cannot
		// honour even the relaxed contract: shed like an unavailable backend.
		status = http.StatusServiceUnavailable
	case errors.As(err, &se):
		status = se.Code
	}
	http.Error(w, err.Error(), status)
	return congested
}
