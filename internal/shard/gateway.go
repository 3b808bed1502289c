package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"etude/internal/httpapi"
	"etude/internal/metrics"
	"etude/internal/topk"
	"etude/internal/trace"
)

// Picker routes one shard group's sub-requests across that group's replica
// pods and accepts outcome feedback for its health state.
// *cluster.Balancer implements it, so a gateway fans out through the same
// per-pod circuit breakers ordinary traffic uses.
type Picker interface {
	// PickURL returns the next routable replica base URL, or "" when none
	// is (every breaker open, or the set empty).
	PickURL() string
	// Report feeds the outcome of a request to url back into its breaker.
	Report(url string, ok bool)
}

// GatewayConfig tunes the cross-pod scatter-gather frontend.
type GatewayConfig struct {
	// K is the number of recommendations requested per shard and returned
	// after the merge (default model.DefaultTopK via the zero check: 21 is
	// not imported here to keep the dependency surface small, so callers
	// normally set it from their model's Config().TopK; 0 defaults to 21).
	K int
	// Hedge configures tail-latency hedging of shard sub-requests.
	Hedge HedgeConfig
	// Timeout bounds each sub-request attempt (default 1s).
	Timeout time.Duration
	// Policy is the partial-result serving policy (zero value: strict
	// fail-fast, the exactness-preserving default).
	Policy Policy
	// Transport overrides the HTTP transport (tests; nil uses the default).
	Transport http.RoundTripper
}

// Gateway is the cross-pod scatter-gather frontend of a sharded fleet: one
// Picker per shard group. PredictPartial scatters the request to every shard,
// optionally hedges stragglers with a backup sub-request to another
// replica of the same shard (first response wins, loser cancelled via its
// context), and merges the partial top-k lists into the exact global
// top-k.
//
// What a failed shard does is the Policy's call. Under PolicyFailFast
// (default) exactness requires every shard to answer: a shard whose every
// attempt fails fails the whole request. Under PolicyPartial the gateway
// merges the survivors and reports the coverage, failing only below the
// MinCoverage floor; per-shard-group breakers skip blacked-out shards
// outright so a dead group costs nothing per request instead of a
// sub-request timeout.
type Gateway struct {
	shards []Picker
	cfg    GatewayConfig
	client *http.Client
	core   *gatherCore
	epoch  time.Time // the core's clock reads wall time since here
	tracer *trace.Tracer
}

// NewGateway builds a gateway over one Picker per shard group.
func NewGateway(shards []Picker, cfg GatewayConfig) (*Gateway, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: gateway needs at least one shard group")
	}
	if cfg.K <= 0 {
		cfg.K = 21
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = time.Second
	}
	cfg.Policy = cfg.Policy.withDefaults()
	return &Gateway{
		shards: shards,
		cfg:    cfg,
		client: &http.Client{Transport: cfg.Transport},
		core:   newGatherCore(len(shards), cfg.Policy, cfg.Hedge),
		epoch:  time.Now(),
	}, nil
}

// SetTracer attaches a stage tracer recording shard-scatter, shard-wait
// and shard-merge spans per request. Nil turns tracing off.
func (g *Gateway) SetTracer(t *trace.Tracer) { g.tracer = t }

// Shards returns the number of shard groups behind the gateway.
func (g *Gateway) Shards() int { return len(g.shards) }

// Stats returns the gateway's hedge counters.
func (g *Gateway) Stats() *HedgeStats { return &g.core.stats }

// PartialStats returns the gateway's partial-serving counters.
func (g *Gateway) PartialStats() *PartialStats { return &g.core.pstats }

// Policy returns the gateway's effective (defaulted) serving policy.
func (g *Gateway) Policy() Policy { return g.cfg.Policy }

// WriteMetrics appends the hedge and partial-serving counters to a
// Prometheus exposition.
func (g *Gateway) WriteMetrics(pb *metrics.PromBuilder) {
	g.core.stats.WriteMetrics(pb)
	g.core.pstats.WriteMetrics(pb)
}

// PredictPartial scatters the request to every shard group, gathers the
// partial top-k lists and merges them under the gateway's Policy. The
// result carries the coverage metadata a frontend needs to stamp
// X-Degraded/X-Coverage. Under PolicyFailFast any shard failure fails the
// request (and the merged answer, when it exists, is bit-identical to the
// unsharded top-k); under PolicyPartial the merge proceeds as long as
// ⌈MinCoverage·S⌉ shards answered, and a CoverageError reports the floor
// being missed.
//
// Every decision is the gather core's; this is its live driver: one
// goroutine per attempt, wall-clock hedge timers and context cancel, all
// feeding one select loop.
func (g *Gateway) PredictPartial(ctx context.Context, req httpapi.PredictRequest) (*PartialResult, error) {
	sp := g.tracer.Start(req.RequestID)
	scatterStart := sp.Now()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	d := &liveGather{
		gw:      g,
		ctx:     ctx,
		req:     req,
		primary: make([]string, len(g.shards)),
		// Room for every post: at most a primary, a backup and a hedge
		// timer per shard, so no goroutine blocks once the loop is gone.
		events: make(chan func(), 3*len(g.shards)),
	}
	if dl, ok := ctx.Deadline(); ok && g.cfg.Policy.Mode == PolicyPartial {
		// Straggler sub-deadline: under partial serving a slow shard is
		// dropped while there is still deadline budget left to merge the
		// survivors — it must not drag the whole request to the wire and
		// leave nothing to serve. To the core it is one more shard failure.
		if rem := time.Until(dl); rem > 0 {
			sub := time.Duration(float64(rem) * g.cfg.Policy.StragglerFraction)
			var stop context.CancelFunc
			d.ctx, stop = context.WithDeadline(ctx, time.Now().Add(sub))
			defer stop()
		}
	}
	gt := g.core.newGather(d)
	d.g = gt
	gt.start(g.now())
	sp.ObserveSince(trace.StageShardScatter, scatterStart)
	waitStart := sp.Now()
	for !gt.done {
		select {
		case ev := <-d.events:
			if err := ctx.Err(); err != nil {
				gt.abort(err) // the caller's cancel, not the shards' failure
			} else {
				ev()
			}
		case <-ctx.Done():
			gt.abort(ctx.Err())
		}
	}
	sp.ObserveSince(trace.StageShardWait, waitStart)
	if gt.err != nil {
		// The failed request still did (and traced) real scatter work — it
		// must show up in the stage breakdown and error count, not vanish.
		sp.FinishError()
		return nil, gt.err
	}
	mergeStart := sp.Now()
	pr := &PartialResult{Recs: topk.MergePartial(gt.partials, g.cfg.K), Answered: gt.answered, Shards: len(g.shards)}
	if pr.Partial() {
		sp.ObserveSince(trace.StagePartialMerge, mergeStart)
	} else {
		sp.ObserveSince(trace.StageShardMerge, mergeStart)
	}
	sp.Finish()
	return pr, nil
}

// liveGather carries out one request's gather actions over HTTP. Attempt
// goroutines and hedge timers post the gather's inputs to events, and
// PredictPartial's loop runs them one at a time.
type liveGather struct {
	gw      *Gateway
	g       *gather
	ctx     context.Context // the attempts' parent: the request, or its straggler sub-deadline
	req     httpapi.PredictRequest
	primary []string // per shard: the primary's replica URL
	events  chan func()
	timers  []*time.Timer
}

func (g *Gateway) now() time.Duration { return time.Since(g.epoch) }

func (d *liveGather) send(a, s int, backup bool) (func(), error) {
	p := d.gw.shards[s]
	url := p.PickURL()
	if url == "" {
		return nil, &httpapi.StatusError{Code: http.StatusServiceUnavailable}
	}
	if backup && url == d.primary[s] {
		// Round-robin may hand back the primary's replica; one re-pick is
		// enough to land elsewhere in a ≥2-replica group.
		if url = p.PickURL(); url == "" || url == d.primary[s] {
			return nil, errSameReplica
		}
	}
	if !backup {
		d.primary[s] = url
	}
	ctx, cancel := context.WithCancel(d.ctx)
	go func() {
		recs, err := d.gw.do(ctx, url, d.req)
		if ctx.Err() == nil {
			p.Report(url, err == nil) // a cancelled attempt says nothing about the pod
		}
		d.events <- func() { d.g.outcome(a, d.gw.now(), recs, err) }
	}()
	return cancel, nil
}

func (d *liveGather) armHedge(s int, after time.Duration) {
	d.timers = append(d.timers, time.AfterFunc(after, func() {
		d.events <- func() {
			budget := noDeadline
			if dl, ok := d.ctx.Deadline(); ok {
				budget = time.Until(dl)
			}
			d.g.hedgeFired(s, d.gw.now(), budget)
		}
	}))
}

func (d *liveGather) finish(*gather) {
	for _, t := range d.timers {
		t.Stop()
	}
}

// do issues one sub-request and parses the partial top-k out of the
// response body — unlike loadgen's measurement client, the gateway needs
// the items and scores, not just the status line.
func (g *Gateway) do(ctx context.Context, baseURL string, req httpapi.PredictRequest) ([]topk.Result, error) {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.Timeout)
	defer cancel()
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, baseURL+httpapi.PredictPath, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if req.RequestID != "" {
		hreq.Header.Set(httpapi.HeaderRequestID, req.RequestID)
	}
	// Propagate the effective deadline (the tighter of the caller's budget
	// and the per-attempt timeout) so shard pods can shed expired work from
	// their own queues instead of computing answers nobody is waiting for.
	if dl, ok := ctx.Deadline(); ok {
		httpapi.SetDeadlineHeader(hreq.Header, dl)
	}
	resp, err := g.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return nil, &httpapi.StatusError{Code: resp.StatusCode}
	}
	var pr httpapi.PredictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return nil, fmt.Errorf("shard: decoding sub-response: %w", err)
	}
	if len(pr.Items) != len(pr.Scores) {
		return nil, fmt.Errorf("shard: sub-response items/scores length mismatch (%d vs %d)", len(pr.Items), len(pr.Scores))
	}
	recs := make([]topk.Result, len(pr.Items))
	for i := range pr.Items {
		recs[i] = topk.Result{Item: pr.Items[i], Score: pr.Scores[i]}
	}
	return recs, nil
}
