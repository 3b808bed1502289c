package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"
	"time"
)

func TestPercentile(t *testing.T) {
	v := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}, {0.25, 2}} {
		if got := percentile(v, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %g) = %g, want %g", v, c.q, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples must be NaN")
	}
	if v[0] != 5 {
		t.Error("percentile must not reorder its input")
	}
}

// TestQuartiles pins quartiles to Python's statistics.quantiles(v, n=4),
// which the driver judges spreads with.
func TestQuartiles(t *testing.T) {
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g, want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 1.5 || q3 != 4.5 {
		t.Errorf("quartiles(1..5) = %g, %g, want 1.5, 4.5", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Errorf("spread(1..5) = %g, want 1", got)
	}
}

// slice10 is a slice of ten requests: n of them take slow ms, the rest base.
func slice10(base float64, n int, slow float64) window {
	w := window{ok: 10, cpu: 10 * time.Millisecond, rps: 1000 / base}
	for i := 0; i < 10; i++ {
		lat := base
		if i < n {
			lat = slow
		}
		w.latMs = append(w.latMs, lat)
	}
	return w
}

func TestCalm(t *testing.T) {
	// Eight slices; a neighbour slows six of them down, the calm quarter is
	// the two it left alone.
	var ws []window
	for _, base := range []float64{1.5, 1.0, 1.9, 1.6, 1.01, 1.7, 1.8, 1.55} {
		ws = append(ws, slice10(base, 0, 0))
	}
	ws = append(ws, window{rps: math.Inf(1)}) // a slice without samples is never chosen
	c := calm(ws)
	if c.ok != 20 || len(c.latMs) != 20 {
		t.Fatalf("calm pooled %d requests, %d samples, want 20", c.ok, len(c.latMs))
	}
	if got := c.p50(); got != 1.005 {
		t.Errorf("calm p50 = %g, want 1.005", got)
	}
	if got, want := c.throughput(), (1000/1.0+1000/1.01)/2; math.Abs(got-want) > 1e-9 {
		t.Errorf("calm throughput = %g, want %g", got, want)
	}
	if got := c.cpuMsPerReq(); got != 1 {
		t.Errorf("calm cpu per request = %g ms, want 1", got)
	}
	if !math.IsNaN(calm(nil).p50()) {
		t.Error("calm of no slices must have no p50")
	}

	// A stall that hits the tail of a minority of slices — three in eight,
	// three requests in ten — leaves their medians alone, so they stay eligible
	// and the pooled p90 shows it. The best single slice would not.
	ws = ws[:0]
	for i := 0; i < 8; i++ {
		w := slice10(1+float64(i)/100, 0, 0)
		if i == 1 || i == 4 || i == 6 {
			w = slice10(1+float64(i)/100, 3, 9)
		}
		ws = append(ws, w)
	}
	if got := calm(ws).p90(); got != 9 {
		t.Errorf("calm p90 = %g: a stall in a minority of slices must move it", got)
	}

	// A change that slows every request moves every metric with it.
	for i := range ws {
		ws[i] = slice10(1.2*(1+float64(i)/100), 0, 0)
	}
	if got := calm(ws).p50(); math.Abs(got-1.2*1.005) > 1e-9 {
		t.Errorf("calm p50 after a 20%% slow-down = %g, want %g", got, 1.2*1.005)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "request", StartNs: 0, EndNs: 1000},
		{ID: 2, Parent: 1, Name: "server.handler", StartNs: 1000, EndNs: 1700},
		{ID: 3, Parent: 2, Name: "httpapi.decode", StartNs: 1700, EndNs: 1800},
		{ID: 4, Parent: 2, Name: "model.recommend", StartNs: 1800, EndNs: 2300},
		{ID: 5, Parent: 4, Name: "tensor.scan", StartNs: 2300, EndNs: 2900}, // longer than its parent
	}
	want := map[int]time.Duration{1: 300, 2: 100, 3: 100, 4: 0, 5: 600}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

var smokeSize = sizing{
	PoolSessions: 2000, ColdStarts: 2, Oracle: 4, Slices: 2, CatalogDiv: 20, TraceDiv: 20, AllocRuns: 5,
	Warmup: 50 * time.Millisecond, LayerBudget: 10 * time.Millisecond, ReplayBudget: 5 * time.Second,
}

func TestPoolFromSeed(t *testing.T) {
	def, _ := findWorkload("encoder_long")
	pool := func(seed int64) (string, int) {
		p, err := buildPool(def, smokeSize, seed)
		if err != nil {
			t.Fatal(err)
		}
		n, err := requestBytes(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range p {
			if len(s) != def.PadTo {
				t.Fatalf("session of %d clicks, want %d", len(s), def.PadTo)
			}
		}
		return poolDigest(p), n
	}
	d1, n1 := pool(7)
	d2, n2 := pool(7)
	d3, n3 := pool(8)
	if d1 != d2 || n1 != n2 {
		t.Errorf("same seed: digests %s %s, request bytes %d %d", d1, d2, n1, n2)
	}
	if d1 == d3 || n1 == n3 {
		t.Errorf("different seeds gave the same pool: digest %s, request bytes %d and %d", d1, n1, n3)
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// TestBenchmarkJSON keeps BENCHMARK.json and the tables the program prints
// from identical: names, units, directions, bounds and workloads.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n json %v\n code %v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n json %v\n code %v", bf.PerLayer, perLayer)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bf.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: json %+v, code %s / %s", i, bf.Workloads[i], w.Name, w.Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	if bf.RunSeconds < 20 {
		t.Errorf("run_seconds %d leaves a phase under 10 s", bf.RunSeconds)
	}
}

// TestSmoke runs all four workloads, untraced and traced, at a fraction of
// their size and checks that every named metric is reported, that nothing
// failed verification, and that each layer shows up where it should.
func TestSmoke(t *testing.T) {
	dir := t.TempDir()
	for _, def := range workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(def, smokeSize, 3, 200*time.Millisecond, traced, dir)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", def.Name, traced, err)
			}
			if res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: %d of %d requests failed: %s", def.Name, traced, res.Failed, res.Attempted, res.FailReason)
			}
			for _, d := range res.defs {
				v, ok := res.Metrics[d.Name]
				if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("%s/%s = %v (present %v)", def.Name, d.Name, v, ok)
				}
				if !traced && v <= 0 {
					t.Errorf("%s/%s = %g, end-to-end metrics are never 0", def.Name, d.Name, v)
				}
			}
			if len(res.Metrics) != len(res.defs) {
				t.Errorf("%s traced=%v: %d metrics reported, %d named", def.Name, traced, len(res.Metrics), len(res.defs))
			}
			if !traced {
				continue
			}
			m := res.Metrics
			for _, name := range []string{"server.handler_us", "httpapi.decode_us", "httpapi.encode_us", "loadgen.client_us",
				"loadgen.client_allocs", "server.handler_allocs", "metrics.record_ns", "workload.pool_build_ms",
				"workload.session_len_mean", "server.start_ms", "httpapi.req_bytes", "httpapi.resp_bytes", "runtime.allocs_per_req"} {
				if m[name] <= 0 {
					t.Errorf("%s/%s = %g, want > 0", def.Name, name, m[name])
				}
			}
			onModel := []string{"tensor.scan_us", "tensor.scan_gbps", "tensor.stream_gbps", "topk.select_us",
				"model.encode_us", "model.recommend_us", "model.build_ms", "server.inference_us"}
			for _, name := range onModel {
				if def.Model != "" && m[name] <= 0 {
					t.Errorf("%s/%s = %g, want > 0", def.Name, name, m[name])
				}
				if def.Model == "" && name != "server.inference_us" && m[name] != 0 {
					t.Errorf("%s/%s = %g, the static server runs no model", def.Name, name, m[name])
				}
			}
			if (def.Batch != nil) != (m["batching.submit_us"] > 0) {
				t.Errorf("%s/batching.submit_us = %g", def.Name, m["batching.submit_us"])
			}
			if _, err := os.Stat(dir + "/trace-" + def.Name + ".json"); err != nil {
				t.Errorf("trace file: %v", err)
			}
		}
	}
}
