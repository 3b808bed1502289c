package main

import (
	"fmt"
	"math"
	"time"
)

// metricDef is one row of BENCHMARK.json. Bound is the share of the
// parent's median an end-to-end metric may worsen by; per-layer metrics
// have none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the serving system sees, per workload.
var endToEnd = []metricDef{
	{"lat_p50_ms", "ms", "lower", 0.25},
	{"lat_p90_ms", "ms", "lower", 0.25},
	{"throughput_rps", "1/s", "higher", 0.25},
	{"cpu_ms_per_req", "ms", "lower", 0.25},
	{"alloc_kb_per_req", "KB", "lower", 0.02},
	{"mem_live_mb", "MB", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer is what the traced run reports, outside in.
var perLayer = []metricDef{
	{Name: "tensor.scan_us", Unit: "us", Better: "lower"},
	{Name: "tensor.scan_ns_per_item_dim", Unit: "ns", Better: "lower"},
	{Name: "tensor.scan_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "tensor.stream_gbps", Unit: "GB/s", Better: "higher"},
	{Name: "tensor.scan_bw_share", Unit: "ratio", Better: "higher"},
	{Name: "topk.select_us", Unit: "us", Better: "lower"},
	{Name: "topk.select_ns_per_item", Unit: "ns", Better: "lower"},
	{Name: "model.encode_us", Unit: "us", Better: "lower"},
	{Name: "model.recommend_us", Unit: "us", Better: "lower"},
	{Name: "model.encoder_share", Unit: "ratio", Better: "lower"},
	{Name: "model.recommend_allocs", Unit: "count", Better: "lower"},
	{Name: "model.recommend_kb", Unit: "KB", Better: "lower"},
	{Name: "model.build_ms", Unit: "ms", Better: "lower"},
	{Name: "batching.submit_us", Unit: "us", Better: "lower"},
	{Name: "batching.batch_size_mean", Unit: "count", Better: "higher"},
	{Name: "httpapi.decode_us", Unit: "us", Better: "lower"},
	{Name: "httpapi.encode_us", Unit: "us", Better: "lower"},
	{Name: "httpapi.decode_allocs", Unit: "count", Better: "lower"},
	{Name: "httpapi.encode_allocs", Unit: "count", Better: "lower"},
	{Name: "httpapi.req_bytes", Unit: "B", Better: "lower"},
	{Name: "httpapi.resp_bytes", Unit: "B", Better: "lower"},
	{Name: "server.handler_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_self_us", Unit: "us", Better: "lower"},
	{Name: "server.handler_allocs", Unit: "count", Better: "lower"},
	{Name: "server.inference_us", Unit: "us", Better: "lower"},
	{Name: "server.start_ms", Unit: "ms", Better: "lower"},
	{Name: "loadgen.client_us", Unit: "us", Better: "lower"},
	{Name: "loadgen.client_allocs", Unit: "count", Better: "lower"},
	{Name: "metrics.record_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.pool_build_ms", Unit: "ms", Better: "lower"},
	{Name: "workload.session_len_mean", Unit: "count", Better: "lower"},
	{Name: "runtime.allocs_per_req", Unit: "count", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "1/kreq", Better: "lower"},
	{Name: "runtime.gc_pause_ms", Unit: "ms/kreq", Better: "lower"},
	{Name: "host.steal_share", Unit: "ratio", Better: "lower"},
	{Name: "reconcile_err", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_share", Unit: "ratio", Better: "lower"},
}

// phaseSummary is the per-phase request accounting printed with a run.
type phaseSummary struct {
	Name      string `json:"name"`
	Clients   int    `json:"clients"`
	Attempted int    `json:"attempted"`
	Succeeded int    `json:"succeeded"`
	Failed    int    `json:"failed"`
	Verified  int    `json:"verified"`
}

func summarize(p *phase) phaseSummary {
	return phaseSummary{p.name, p.clients, p.attempted, p.ok, p.failed, p.verified}
}

// runResult is one run of one workload.
type runResult struct {
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Traced       bool           `json:"traced"`
	Seconds      float64        `json:"seconds"`
	PoolDigest   string         `json:"pool_digest"`
	RequestBytes int            `json:"request_bytes"`
	Phases       []phaseSummary `json:"phases"`
	// ColdCatalog says the catalog was flushed from the caches before every
	// request (workloadDef.ColdCatalog, on a processor that can).
	ColdCatalog bool `json:"cold_catalog,omitempty"`
	// LatencySamples is how many requests lat_p50_ms and lat_p90_ms rest on.
	LatencySamples int                `json:"latency_samples,omitempty"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	FailReason     string             `json:"fail_reason,omitempty"`
	Metrics        map[string]float64 `json:"metrics"`
	defs           []metricDef
}

func (r *runResult) addPhase(p *phase) {
	r.Phases = append(r.Phases, summarize(p))
	r.Attempted += p.attempted
	r.Failed += p.failed
	if r.FailReason == "" {
		r.FailReason = p.firstFailReason
	}
}

// runWorkload sets the workload up sz.ColdStarts times, keeps the last
// instance, warms it, and measures it for about `measure`: untraced,
// alternating serial and saturate slices that add up to measure/2 per
// phase; traced, measure/4 of serial slices followed by the layer replays.
func runWorkload(def workloadDef, sz sizing, seed int64, measure time.Duration, traced bool, outDir string) (*runResult, error) {
	res := &runResult{Workload: def.Name, Seed: seed, Traced: traced, Seconds: measure.Seconds(), Metrics: map[string]float64{}}
	orc := &oracle{}

	var in *instance
	var setups []setupTimes
	for i := 0; i < sz.ColdStarts; i++ {
		if in != nil {
			in.close()
			in = nil
		}
		var st setupTimes
		var err error
		in, st, err = coldStart(def, sz, seed, orc)
		if err != nil {
			return nil, fmt.Errorf("%s: cold start %d: %w", def.Name, i+1, err)
		}
		setups = append(setups, st)
		res.Attempted++ // the first verified response
	}
	defer in.close()
	res.PoolDigest = poolDigest(in.pool)
	res.ColdCatalog = in.cold != nil
	var err error
	if res.RequestBytes, err = requestBytes(in.pool); err != nil {
		return nil, err
	}

	clients := []*client{newClient(in.baseURL, 0, 2), newClient(in.baseURL, 1, 2)}
	defer clients[0].close()
	defer clients[1].close()
	wa, wf, reason := warmUp(in, orc, clients, sz.Warmup)
	res.Phases = append(res.Phases, phaseSummary{"warm-up", len(clients), wa, wa - wf, wf, wa})
	res.Attempted += wa
	res.Failed += wf
	res.FailReason = reason

	slice := measure / time.Duration(2*sz.Slices)
	serial := &phase{name: "serial", clients: def.SerialClients}
	if traced {
		res.defs = perLayer
		serial.name = "untraced"
		for i := 0; i < sz.Slices/2; i++ {
			serial.runSlice(in, orc, clients[:def.SerialClients], slice)
		}
		res.addPhase(serial)
		m, tp, err := traceLayers(in, orc, sz, seed, clients, serial, setups, outDir)
		if err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", def.Name, err)
		}
		res.addPhase(tp)
		res.Metrics = m
		return res, nil
	}

	res.defs = endToEnd
	saturate := &phase{name: "saturate", clients: len(clients)}
	if def.SerialClients == len(clients) {
		// One phase serves both roles when the latency phase already runs
		// every client.
		serial.name = "serial+saturate"
		saturate = serial
	}
	// Serial and saturate slices alternate, so both phases span the whole
	// run and see the same quiet and disturbed stretches of the host.
	for i := 0; i < sz.Slices; i++ {
		serial.runSlice(in, orc, clients[:def.SerialClients], slice)
		saturate.runSlice(in, orc, clients, slice)
	}
	res.addPhase(serial)
	if saturate != serial {
		res.addPhase(saturate)
	}
	lat, tput := calm(serial.windows), calm(saturate.windows)
	res.LatencySamples = len(lat.latMs)
	res.Metrics["lat_p50_ms"] = lat.p50()
	res.Metrics["lat_p90_ms"] = lat.p90()
	res.Metrics["cpu_ms_per_req"] = lat.cpuMsPerReq()
	res.Metrics["throughput_rps"] = tput.throughput()
	// No neighbour can disturb a byte count, so every timed request counts:
	// what is left to vary is the mix of session lengths among them.
	allocBytes, reqs := serial.total.allocBytes, serial.ok
	if saturate != serial {
		allocBytes, reqs = allocBytes+saturate.total.allocBytes, reqs+saturate.ok
	}
	res.Metrics["alloc_kb_per_req"] = float64(allocBytes) / 1024 / float64(reqs)
	var totals []float64
	live := math.Inf(1)
	for _, st := range setups {
		totals = append(totals, st.total().Seconds())
		// The live heap has a floor; above it sits whatever a background
		// goroutine held at the instant of the reading (±1 KB, which is 3% of
		// the static server), so the smallest reading is the live heap.
		live = math.Min(live, st.LiveMB)
	}
	res.Metrics["mem_live_mb"] = live
	res.Metrics["setup_s"] = median(totals)
	return res, nil
}
