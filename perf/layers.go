package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"etude/internal/batching"
	"etude/internal/httpapi"
	"etude/internal/metrics"
	"etude/internal/model"
	"etude/internal/tensor"
	"etude/internal/topk"
)

// memWriter is the in-memory http.ResponseWriter the handler replays write
// to, so server.handler spans hold the handler alone, without net/http's
// connection handling.
type memWriter struct {
	header http.Header
	body   bytes.Buffer
	status int
}

func newMemWriter() *memWriter                   { return &memWriter{header: http.Header{}} }
func (w *memWriter) Header() http.Header         { return w.header }
func (w *memWriter) Write(p []byte) (int, error) { return w.body.Write(p) }
func (w *memWriter) WriteHeader(code int)        { w.status = code }

// timeLoop calls f until budget has passed (at least 5 times) and returns
// the median duration of one call in microseconds. prep, if not nil, runs
// untimed before each call.
func timeLoop(budget time.Duration, prep, f func()) float64 {
	var d []float64
	for start := time.Now(); len(d) < 5 || time.Since(start) < budget; {
		if prep != nil {
			prep()
		}
		t := time.Now()
		f()
		d = append(d, float64(time.Since(t))/1e3)
	}
	return median(d)
}

// allocsPer runs f n times on each of workers goroutines in a process that
// is otherwise idle and returns heap objects and KB allocated per call.
func allocsPer(n, workers int, f func(i int)) (objects, kb float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				f(i)
			}
		}()
	}
	wg.Wait()
	runtime.ReadMemStats(&after)
	calls := float64(n * workers)
	return float64(after.Mallocs-before.Mallocs) / calls, float64(after.TotalAlloc-before.TotalAlloc) / 1024 / calls
}

// streamGBps reads len(data)*4 bytes sequentially with four independent
// integer accumulators — perf's own ceiling for what the memory system
// delivers to one core, to hold the scan's computed bandwidth against. prep
// puts the data where the scan finds it (see replayer.cold).
func streamGBps(budget time.Duration, prep func(), data []float32) float64 {
	words := unsafe.Slice((*uint64)(unsafe.Pointer(&data[0])), len(data)/2)
	us := timeLoop(budget, prep, func() {
		var a, b, c, d uint64
		i := 0
		for ; i+4 <= len(words); i += 4 {
			a += words[i]
			b += words[i+1]
			c += words[i+2]
			d += words[i+3]
		}
		sink = a + b + c + d
	})
	return float64(len(words)*8) / (us * 1e3)
}

var sink uint64

// hostCPU reads the aggregate cpu line of /proc/stat: (steal, total) in
// ticks. ok is false where the file is missing or unparsable.
func hostCPU() (steal, total float64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest is in user
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// stubServer is a stdlib-only server that answers every request with a
// canned body: what loadgen.HTTPTarget costs when the server costs nothing.
func stubServer(canned []byte) (baseURL string, stop func(), err error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(canned)
	})}
	done := make(chan struct{})
	go func() { defer close(done); _ = srv.Serve(ln) }()
	return "http://" + ln.Addr().String(), func() { _ = srv.Close(); <-done }, nil
}

// replayer holds one goroutine's private buffers for the layer replays.
type replayer struct {
	in       *instance
	rec      *recorder
	c        *client
	enc      model.Encoder
	compiled func([]int64) []topk.Result
	scores   *tensor.Tensor
	bat      *batching.Batcher[int, int]
	bar      *barrier

	reqBytes, respBytes []float64
	inferenceUs, batch  []float64
	attempted, failed   int
	reason              string
}

func newReplayer(in *instance, rec *recorder, c *client, bat *batching.Batcher[int, int], bar *barrier) *replayer {
	r := &replayer{in: in, rec: rec, c: c, bat: bat, bar: bar}
	if in.mdl != nil {
		r.enc = in.mdl.(model.Encoder)
		r.compiled = in.mdl.(model.JITCompilable).CompiledRecommend()
		r.scores = tensor.New(in.mdl.Config().CatalogSize)
	}
	return r
}

// replay records one traced request: the live round trip under the root
// span, then the same session through each layer's public entry point.
// Steps that must be entered together with the other replaying goroutine
// wait at the barrier first.
func (r *replayer) replay(idx int, orc *oracle) {
	r.attempted++
	together := r.bar.wait
	s := r.in.pool[idx]
	id := fmt.Sprintf("trace-%d", idx)
	req := predictRequest(idx, s)
	req.RequestID = id
	body, err := json.Marshal(req)
	if err != nil {
		r.fail(err)
		return
	}

	r.cold()
	together()
	var respBody []byte
	root := r.rec.time("request", id, 0, func() { respBody, err = r.c.predictCaptured(req) })
	if err == nil && idx < len(orc.want) {
		err = orc.check(idx, respBody)
	}
	if err != nil {
		r.fail(err)
		return
	}
	r.inferenceUs = append(r.inferenceUs, float64(httpapi.InferenceDuration(r.c.tap.header))/1e3)
	if b, err := strconv.Atoi(r.c.tap.header.Get(httpapi.HeaderBatchSize)); err == nil {
		r.batch = append(r.batch, float64(b))
	}
	r.reqBytes = append(r.reqBytes, float64(len(body)))
	r.respBytes = append(r.respBytes, float64(len(respBody)))

	hreq, err := http.NewRequest(http.MethodPost, httpapi.PredictPath, bytes.NewReader(body))
	if err != nil {
		r.fail(err)
		return
	}
	hreq.Header.Set("Content-Type", "application/json")
	hreq.Header.Set(httpapi.HeaderRequestID, id)
	w := newMemWriter()
	r.cold()
	together()
	handler := r.rec.time("server.handler", id, root, func() { r.in.handler.ServeHTTP(w, hreq) })
	if w.status != http.StatusOK || !bytes.Equal(w.body.Bytes(), respBody) {
		r.fail(fmt.Errorf("handler replay of session %d: status %d, body differs from the live response", idx, w.status))
		return
	}

	r.rec.time("httpapi.decode", id, handler, func() {
		var pr httpapi.PredictRequest
		if err = httpapi.ReadJSON(bytes.NewReader(body), &pr); err == nil {
			err = pr.Validate()
		}
	})
	if err != nil {
		r.fail(err)
		return
	}
	if r.bat != nil {
		together()
		r.rec.time("batching.submit", id, handler, func() { _, err = r.bat.Submit(context.Background(), idx) })
		if err != nil {
			r.fail(err)
			return
		}
	}
	var recs []topk.Result
	if r.enc != nil {
		r.cold()
		recommend := r.rec.time("model.recommend", id, handler, func() { recs = r.compiled(s) })
		var rep *tensor.Tensor
		r.rec.time("model.encode", id, recommend, func() { rep = r.enc.Encode(s) })
		r.cold()
		r.rec.time("tensor.scan", id, recommend, func() { tensor.MatVecInto(r.scores, r.enc.ItemEmbeddings(), rep) })
		r.rec.time("topk.select", id, recommend, func() {
			recs = topk.SelectFromScores(r.scores.Data(), r.in.mdl.Config().TopK)
		})
	}
	resp := httpapi.PredictResponse{Items: make([]int64, len(recs)), Scores: make([]float32, len(recs))}
	for i, rc := range recs {
		resp.Items[i], resp.Scores[i] = rc.Item, rc.Score
	}
	w2 := newMemWriter()
	r.rec.time("httpapi.encode", id, handler, func() { httpapi.WriteJSON(w2, http.StatusOK, resp) })
	if !bytes.Equal(w2.body.Bytes(), respBody) {
		r.fail(fmt.Errorf("layer replay of session %d does not reproduce the live response", idx))
	}
}

// cold flushes the catalog where the workload's clients do, so each replayed
// layer finds it in DRAM as the live request did.
func (r *replayer) cold() {
	if r.in.cold != nil {
		r.in.flushShare(0, 1)
	}
}

func (r *replayer) fail(err error) {
	r.bar.abort()
	r.failed++
	if r.reason == "" {
		r.reason = err.Error()
	}
}

// traceLayers is the traced run: it replays def.TraceSessions pool
// sessions under spans, then micro-measures what spans cannot give
// (allocation counts, bandwidth ceilings, stand-alone layer costs), and
// returns every per-layer metric. base is the untraced phase this run
// measured first; its p50 is what the layers are reconciled against.
func traceLayers(in *instance, orc *oracle, sz sizing, seed int64, clients []*client, base *phase, setups []setupTimes, outDir string) (map[string]float64, *phase, error) {
	m := map[string]float64{}
	for _, d := range perLayer {
		m[d.Name] = 0 // a layer that is not on this workload's path costs it nothing
	}
	stealA, totalA, hostOK := hostCPU()

	rec := newRecorder()
	workers := in.def.SerialClients
	var bat *batching.Batcher[int, int]
	if in.def.Batch != nil {
		var err error
		bat, err = batching.New(*in.def.Batch, func(b []int) []int { return b })
		if err != nil {
			return nil, nil, err
		}
		defer bat.Close()
	}
	bar := newBarrier(workers)
	reps := make([]*replayer, workers)
	var wg sync.WaitGroup
	n := in.def.TraceSessions / sz.TraceDiv
	deadline := time.Now().Add(sz.ReplayBudget)
	for w := range reps {
		reps[w] = newReplayer(in, rec, clients[w], bat, bar)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// A worker that has left must not strand the other at the
			// barrier. The replays stop early on a host so slow that all of
			// them would take the run past what the driver allows.
			defer bar.abort()
			for i := 0; i+workers <= n && time.Now().Before(deadline); i += workers {
				reps[w].replay(i+w, orc)
			}
		}(w)
	}
	wg.Wait()

	traced := &phase{name: "traced", clients: workers}
	var reqB, respB, infUs, batch []float64
	for _, r := range reps {
		traced.attempted += r.attempted
		traced.failed += r.failed
		if traced.firstFailReason == "" {
			traced.firstFailReason = r.reason
		}
		reqB, respB = append(reqB, r.reqBytes...), append(respB, r.respBytes...)
		infUs, batch = append(infUs, r.inferenceUs...), append(batch, r.batch...)
	}
	traced.ok = traced.attempted - traced.failed
	traced.verified = traced.ok
	if traced.ok == 0 {
		return m, traced, nil
	}

	dur := rec.durations()
	med := func(name string) float64 {
		if len(dur[name]) == 0 {
			return 0
		}
		return median(dur[name])
	}

	// Spans.
	m["server.handler_us"] = med("server.handler")
	m["server.handler_self_us"] = medianSelfUs(rec.spans)["server.handler"]
	m["server.inference_us"] = median(infUs)
	m["httpapi.decode_us"] = med("httpapi.decode")
	m["httpapi.encode_us"] = med("httpapi.encode")
	m["httpapi.req_bytes"] = mean(reqB)
	m["httpapi.resp_bytes"] = mean(respB)
	m["batching.batch_size_mean"] = mean(batch)
	if in.mdl != nil {
		cfg := in.mdl.Config()
		c, d := float64(cfg.CatalogSize), float64(cfg.Dim)
		m["tensor.scan_us"] = med("tensor.scan")
		m["tensor.scan_ns_per_item_dim"] = m["tensor.scan_us"] * 1e3 / (c * d)
		// Computed, not measured: the scan must read C*d*4 bytes.
		m["tensor.scan_gbps"] = c * d * 4 / (m["tensor.scan_us"] * 1e3)
		m["topk.select_us"] = med("topk.select")
		m["topk.select_ns_per_item"] = m["topk.select_us"] * 1e3 / c
		m["model.encode_us"] = med("model.encode")
		m["model.recommend_us"] = med("model.recommend")
		m["model.encoder_share"] = m["model.encode_us"] / m["model.recommend_us"]
	}

	// Stand-alone measurements, in an otherwise idle process.
	lb := sz.LayerBudget
	allocRuns := sz.AllocRuns
	r0 := reps[0]
	if in.mdl != nil {
		m["tensor.stream_gbps"] = streamGBps(lb, r0.cold, r0.enc.ItemEmbeddings().Data())
		m["tensor.scan_bw_share"] = m["tensor.scan_gbps"] / m["tensor.stream_gbps"]
		m["model.recommend_allocs"], m["model.recommend_kb"] = allocsPer(allocRuns, 1, func(i int) {
			r0.compiled(in.pool[i%len(in.pool)])
		})
	}
	if bat != nil {
		lat := make([][]float64, 2)
		var wg sync.WaitGroup
		deadline := time.Now().Add(lb)
		for w := range lat {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; time.Now().Before(deadline); i++ {
					t := time.Now()
					_, _ = bat.Submit(context.Background(), i)
					lat[w] = append(lat[w], float64(time.Since(t))/1e3)
				}
			}(w)
		}
		wg.Wait()
		m["batching.submit_us"] = median(append(lat[0], lat[1]...))
	}
	bodies := make([][]byte, allocRuns)
	for i := range bodies {
		bodies[i], _ = json.Marshal(predictRequest(i, in.pool[i%len(in.pool)]))
	}
	m["httpapi.decode_allocs"], _ = allocsPer(allocRuns, 1, func(i int) {
		var pr httpapi.PredictRequest
		_ = httpapi.ReadJSON(bytes.NewReader(bodies[i]), &pr)
	})
	var sample httpapi.PredictResponse
	canned, err := clients[0].predictCaptured(predictRequest(0, in.pool[0]))
	if err != nil {
		return nil, nil, err
	}
	if err := json.Unmarshal(canned, &sample); err != nil {
		return nil, nil, err
	}
	m["httpapi.encode_allocs"], _ = allocsPer(allocRuns, 1, func(i int) {
		httpapi.WriteJSON(newMemWriter(), http.StatusOK, sample)
	})
	m["server.handler_allocs"], _ = allocsPer(allocRuns, workers, func(i int) {
		hreq, _ := http.NewRequest(http.MethodPost, httpapi.PredictPath, bytes.NewReader(bodies[i]))
		in.handler.ServeHTTP(newMemWriter(), hreq)
	})

	stubURL, stopStub, err := stubServer(canned)
	if err != nil {
		return nil, nil, err
	}
	sc := newClient(stubURL, 0, 1)
	i := 0
	m["loadgen.client_us"] = timeLoop(lb, nil, func() {
		_ = sc.target.Predict(context.Background(), predictRequest(i, in.pool[i%len(in.pool)]))
		i++
	})
	m["loadgen.client_allocs"], _ = allocsPer(allocRuns, 1, func(i int) {
		_ = sc.target.Predict(context.Background(), predictRequest(i, in.pool[i%len(in.pool)]))
	})
	sc.close()
	stopStub()

	h := metrics.NewHistogram()
	const recordBatch = 1000
	m["metrics.record_ns"] = timeLoop(lb/4, nil, func() {
		for i := 0; i < recordBatch; i++ {
			h.Record(time.Duration(i) * time.Microsecond)
		}
	}) * 1e3 / recordBatch

	// Set-up stages and the pool.
	var pool, build, start []float64
	for _, s := range setups {
		pool = append(pool, float64(s.Pool)/1e6)
		build = append(build, float64(s.Model)/1e6)
		start = append(start, float64(s.Server)/1e6)
	}
	m["workload.pool_build_ms"] = median(pool)
	if in.mdl != nil {
		m["model.build_ms"] = median(build)
	}
	m["server.start_ms"] = median(start)
	clicks := 0
	for _, s := range in.pool {
		clicks += len(s)
	}
	m["workload.session_len_mean"] = float64(clicks) / float64(len(in.pool))

	// The untraced phase of this run: runtime effects per 1000 requests.
	kreq := float64(base.ok) / 1000
	m["runtime.allocs_per_req"] = float64(base.total.mallocs) / float64(base.ok)
	m["runtime.gc_cycles"] = float64(base.total.numGC) / kreq
	m["runtime.gc_pause_ms"] = float64(base.total.gcPause) / 1e6 / kreq

	p50 := calm(base.windows).p50()
	m["reconcile_err"] = math.Abs(p50-(m["loadgen.client_us"]+m["server.handler_us"])/1e3) / p50
	m["trace.overhead_share"] = (med("request")/1e3 - p50) / p50
	if stealB, totalB, ok := hostCPU(); ok && hostOK && totalB > totalA {
		m["host.steal_share"] = (stealB - stealA) / (totalB - totalA)
	}

	if _, err := rec.write(outDir, in.def.Name, seed); err != nil {
		return nil, nil, err
	}
	return m, traced, nil
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}
