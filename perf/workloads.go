package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"time"

	"etude/internal/batching"
	"etude/internal/httpapi"
	"etude/internal/loadgen"
	"etude/internal/model"
	"etude/internal/server"
	"etude/internal/topk"
	"etude/internal/workload"
)

// workloadDef declares one traffic mix and the server it is sent to.
type workloadDef struct {
	Name string
	Why  string
	// Model is the served architecture; "" serves server.NewStatic().
	Model   string
	Catalog int
	Dim     int // 0 = model.HeuristicDim(Catalog)
	// PadTo repeats each session's own clicks until it has this many.
	PadTo int
	Batch *batching.Config
	// SerialClients is the client count of the latency phase. batch_100k
	// uses 2: a lone request there only measures the flush timer.
	SerialClients int
	// TraceSessions is how many pool sessions the traced run replays.
	TraceSessions int
	// ColdCatalog has every request find the item embeddings in DRAM:
	// the client flushes them from the caches before it sends. The 128 MB
	// catalog of scan_1m is half of this host's shared last-level cache;
	// left alone it is scanned from cache (17 ms) or from DRAM (27 ms) as the
	// neighbours' traffic decides, for minutes at a time. From DRAM is where
	// the catalogs the paper scales to (1e7 items and up) always are.
	ColdCatalog bool
}

var workloads = []workloadDef{
	{
		Name:          "static_overhead",
		Why:           "static server (paper Fig 2): only server, httpapi, loadgen and net/http work; bypasses tensor, topk and model",
		Catalog:       1_000_000,
		SerialClients: 1, TraceSessions: 200,
	},
	{
		Name:          "scan_1m",
		Why:           "gru4rec at C=1e6, d=32, short sessions, catalog flushed to DRAM before each request: the O(C*d) scan plus top-k is >=95% of latency, the paper's headline regime",
		Model:         "gru4rec",
		Catalog:       1_000_000,
		ColdCatalog:   true,
		SerialClients: 1, TraceSessions: 100,
	},
	{
		Name:          "encoder_long",
		Why:           "sasrec at C=1e4, d=128, 50-click sessions: the encoder is ~95% of inference and allocates heavily; bypasses the scan",
		Model:         "sasrec",
		Catalog:       10_000,
		Dim:           128,
		PadTo:         50,
		SerialClients: 1, TraceSessions: 200,
	},
	{
		Name:          "batch_100k",
		Why:           "gru4rec at C=1e5 behind the batcher (max 2, 2ms flush), two clients: the same tensor/model layers used B-at-a-time",
		Model:         "gru4rec",
		Catalog:       100_000,
		Dim:           18,
		Batch:         &batching.Config{MaxBatch: 2, FlushEvery: 2 * time.Millisecond},
		SerialClients: 2, TraceSessions: 200,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// sizing scales a run. The defaults are what BENCHMARK.json measures; the
// smoke test shrinks them so all four workloads fit in seconds.
type sizing struct {
	PoolSessions int // sessions synthesised per cold start
	ColdStarts   int // cold starts per run; setup_s is their median
	Oracle       int // pool sessions with a precomputed expected answer
	Slices       int // slices per phase; a run alternates serial and saturate slices
	CatalogDiv   int // divides every catalog size
	TraceDiv     int // divides the number of sessions the traced run replays
	AllocRuns    int // calls per allocation count of the traced run
	// ReplayBudget ends the traced run's replays early; unthrottled, all of
	// them take 16 s on scan_1m and less elsewhere.
	ReplayBudget time.Duration
	Warmup       time.Duration
	LayerBudget  time.Duration // time spent on each layer micro-measurement
}

var fullSize = sizing{
	PoolSessions: 200_000, ColdStarts: 5, Oracle: 64, Slices: 24, CatalogDiv: 1, TraceDiv: 1, AllocRuns: 50,
	Warmup: 2 * time.Second, LayerBudget: 400 * time.Millisecond, ReplayBudget: 20 * time.Second,
}

// verifyEvery is the sampling rate of output verification in timed phases.
const verifyEvery = 64

// buildPool synthesises the session pool from the seed alone, the way a
// real Etude run does before it sends its first request.
func buildPool(def workloadDef, sz sizing, seed int64) ([]workload.Session, error) {
	al, ac := workload.BolMarginals()
	gen, err := workload.NewGenerator(workload.Spec{
		CatalogSize: def.Catalog / sz.CatalogDiv, AlphaLength: al, AlphaClicks: ac, Seed: seed,
	})
	if err != nil {
		return nil, err
	}
	pool := make([]workload.Session, sz.PoolSessions)
	for i := range pool {
		s := gen.NextSession()
		if n := len(s); n < def.PadTo {
			padded := make(workload.Session, def.PadTo)
			for j := range padded {
				padded[j] = s[j%n]
			}
			s = padded
		}
		pool[i] = s
	}
	return pool, nil
}

// poolDigest fingerprints a pool; equal seeds must give equal digests.
func poolDigest(pool []workload.Session) string {
	h := sha256.New()
	var b [8]byte
	for _, s := range pool {
		binary.LittleEndian.PutUint64(b[:], uint64(len(s)))
		h.Write(b[:])
		for _, it := range s {
			binary.LittleEndian.PutUint64(b[:], uint64(it))
			h.Write(b[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func predictRequest(i int, s workload.Session) httpapi.PredictRequest {
	return httpapi.PredictRequest{SessionID: int64(i), Items: s}
}

// requestBytes is the total JSON body size of one pass over the pool.
func requestBytes(pool []workload.Session) (int, error) {
	total := 0
	for i, s := range pool {
		b, err := json.Marshal(predictRequest(i, s))
		if err != nil {
			return 0, err
		}
		total += len(b)
	}
	return total, nil
}

// instance is one running server with the pool and model behind it.
type instance struct {
	def     workloadDef
	pool    []workload.Session
	mdl     model.Model // nil for the static server
	srv     *server.Server
	handler http.Handler
	httpSrv *http.Server
	served  chan error
	baseURL string
	// cold is the item embedding table where def.ColdCatalog asks for it to
	// be flushed before every request and this processor can; else nil.
	cold []float32
}

// flushShare flushes the i-th of n equal parts of the cold catalog.
func (in *instance) flushShare(i, n int) {
	flushFromCaches(in.cold[len(in.cold)*i/n : len(in.cold)*(i+1)/n])
}

func (in *instance) close() {
	_ = in.httpSrv.Close()
	<-in.served
	in.srv.Close()
}

// setupTimes are the stages of one cold start.
type setupTimes struct {
	Pool, Model, Server, First time.Duration
	LiveMB                     float64
}

func (s setupTimes) total() time.Duration { return s.Pool + s.Model + s.Server + s.First }

func heapAfterGC() float64 {
	// Two cycles: the first moves sync.Pool contents to the victim cache,
	// the second frees them, so the reading does not depend on pool luck.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc)
}

// coldStart performs what a user waits for before the first answer:
// synthesise the pool, build the model, build and start the server, pass
// the readiness probe, and receive one verified response. The two heap
// readings for mem_live_mb are taken with the clock stopped.
func coldStart(def workloadDef, sz sizing, seed int64, orc *oracle) (*instance, setupTimes, error) {
	var st setupTimes
	runtime.GC()

	t := time.Now()
	pool, err := buildPool(def, sz, seed)
	if err != nil {
		return nil, st, err
	}
	st.Pool = time.Since(t)
	heapBefore := heapAfterGC()

	in := &instance{def: def, pool: pool, served: make(chan error, 1)}
	t = time.Now()
	if def.Model != "" {
		in.mdl, err = model.New(def.Model, model.Config{
			CatalogSize: def.Catalog / sz.CatalogDiv, Dim: def.Dim, Seed: seed,
		})
		if err != nil {
			return nil, st, err
		}
	}
	st.Model = time.Since(t)
	if def.ColdCatalog && canFlush {
		in.cold = in.mdl.(model.Encoder).ItemEmbeddings().Data()
	}

	t = time.Now()
	if in.mdl == nil {
		in.srv = server.NewStatic()
	} else if in.srv, err = server.New(in.mdl, server.Options{JIT: true, Batch: def.Batch}); err != nil {
		return nil, st, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		in.srv.Close()
		return nil, st, err
	}
	in.handler = in.srv.Handler()
	in.httpSrv = &http.Server{Handler: in.handler}
	go func() { in.served <- in.httpSrv.Serve(ln) }()
	in.baseURL = "http://" + ln.Addr().String()
	c := newClient(in.baseURL, 0, 1)
	defer c.close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := c.target.WaitReady(ctx); err != nil {
		in.close()
		return nil, st, err
	}
	st.Server = time.Since(t)

	t = time.Now()
	body, err := c.predictCaptured(predictRequest(0, pool[0]))
	st.First = time.Since(t)
	if err == nil {
		orc.fill(in, sz.Oracle)
		err = orc.check(0, body)
	}
	if err != nil {
		in.close()
		return nil, st, fmt.Errorf("first response: %w", err)
	}
	st.LiveMB = (heapAfterGC() - heapBefore) / (1 << 20)
	return in, st, nil
}

// client is one closed-loop caller: a loadgen.HTTPTarget on its own
// transport (so: its own single connection) with a tap that can keep a
// copy of a response for verification outside the timed section.
type client struct {
	target *loadgen.HTTPTarget
	tap    *tap
	base   *http.Transport

	// Position in the pool and in the oracle sessions; clients walk
	// disjoint strides. seq counts requests for the 1-in-verifyEvery sample.
	next, oracleNext, stride, seq int
	samples                       []sample
	captures                      []capture

	cpu time.Duration // process CPU over this slice's requests, where read per request
}

// newClient returns the id-th of n clients of the server at baseURL.
func newClient(baseURL string, id, n int) *client {
	base := &http.Transport{MaxIdleConns: 1, MaxIdleConnsPerHost: 1, IdleConnTimeout: 90 * time.Second}
	tp := &tap{base: base}
	return &client{
		target: loadgen.NewHTTPTargetTransport(baseURL, tp), tap: tp, base: base,
		next: id, oracleNext: id, stride: n,
	}
}

func (c *client) close() { c.base.CloseIdleConnections() }

// predictCaptured sends req through the loadgen target and returns a copy
// of the response body.
func (c *client) predictCaptured(req httpapi.PredictRequest) ([]byte, error) {
	c.tap.capture = true
	c.tap.body.Reset()
	err := c.target.Predict(context.Background(), req)
	c.tap.capture = false
	return append([]byte(nil), c.tap.body.Bytes()...), err
}

// tap is the RoundTripper under a client's HTTPTarget. It is used by one
// goroutine at a time, the client's own.
type tap struct {
	base    http.RoundTripper
	capture bool
	body    bytes.Buffer
	header  http.Header // headers of the last response
}

func (t *tap) RoundTrip(r *http.Request) (*http.Response, error) {
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		return nil, err
	}
	t.header = resp.Header
	if t.capture {
		resp.Body = &teeBody{ReadCloser: resp.Body, w: &t.body}
	}
	return resp, nil
}

type teeBody struct {
	io.ReadCloser
	w *bytes.Buffer
}

func (b *teeBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.w.Write(p[:n])
	return n, err
}

// oracle holds the expected answer of the first n pool sessions, computed
// with the eager model.Recommend — not the compiled or batched path the
// server takes. Model and pool derive from the seed alone, so one oracle
// serves every cold start of a run.
type oracle struct {
	want [][]topk.Result
}

func (o *oracle) fill(in *instance, n int) {
	if o.want != nil {
		return
	}
	o.want = make([][]topk.Result, n)
	for i := range o.want {
		if in.mdl != nil {
			o.want[i] = in.mdl.Recommend(in.pool[i])
		}
	}
}

var errMismatch = errors.New("response does not match the eager oracle")

// check compares a response body with the oracle's answer for pool
// session i: same items, and scores equal bit for bit.
func (o *oracle) check(i int, body []byte) error {
	var got httpapi.PredictResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("decoding response: %w", err)
	}
	want := o.want[i]
	if len(got.Items) != len(want) || len(got.Scores) != len(want) {
		return fmt.Errorf("%w: session %d: %d items, want %d", errMismatch, i, len(got.Items), len(want))
	}
	for j, w := range want {
		if got.Items[j] != w.Item || math.Float32bits(got.Scores[j]) != math.Float32bits(w.Score) {
			return fmt.Errorf("%w: session %d rank %d: got (%d, %g), want (%d, %g)",
				errMismatch, i, j, got.Items[j], got.Scores[j], w.Item, w.Score)
		}
	}
	return nil
}
