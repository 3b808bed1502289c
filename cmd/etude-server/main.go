// Command etude-server runs the ETUDE inference server: it deploys an SBR
// model (from flags or from an object-store bucket) and serves
// /predictions and /ping over HTTP.
//
// The listener comes up before the model loads — /live answers 200 as soon
// as the process can serve HTTP at all, while /ping stays 503 until the
// model is built. That split is what lets an orchestrator measure cold
// start (exec → live) separately from warm ready (exec → ready), exactly
// as Kubernetes probes would.
//
// Shutdown is signal-driven: SIGTERM or SIGINT begins a graceful drain
// (readiness fails, in-flight requests finish, bounded by -drain-timeout),
// then the process exits 0. If the deadline expires with work still in
// flight the server force-closes and exits 1; a second signal skips the
// grace entirely.
//
// Examples:
//
//	etude-server -model gru4rec -catalog 100000 -port 8080
//	etude-server -static -port 8080            # Fig 2 infrastructure mode
//	etude-server -bucket ./bucket -key models/gru4rec.json
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"etude/internal/batching"
	"etude/internal/deploy"
	"etude/internal/httpapi"
	"etude/internal/model"
	"etude/internal/objstore"
	"etude/internal/overload"
	"etude/internal/sched"
	"etude/internal/server"
	"etude/internal/shard"
	"etude/internal/trace"
)

func main() {
	var (
		modelName  = flag.String("model", "", "model to serve (one of: "+fmt.Sprint(model.Names())+")")
		catalog    = flag.Int("catalog", 100_000, "catalog size C")
		seed       = flag.Int64("seed", 1, "weight initialisation seed")
		topK       = flag.Int("topk", model.DefaultTopK, "recommendations per request")
		faithful   = flag.Bool("faithful", false, "serve the RecBole-faithful (buggy) variant")
		jit        = flag.Bool("jit", true, "serve the JIT-compiled execution plan")
		workers    = flag.Int("workers", 0, "executors: batches (of one when unbatched) run at once (0 = GOMAXPROCS)")
		batch      = flag.Bool("batch", false, "enable request batching (1024 / 2ms)")
		tenants    = flag.String("tenants", "", "enable the SLO-aware multi-tenant scheduler with these tenant contracts, as comma-separated name:weight[:priority] entries (e.g. \"a:3,b:1\"); requests label themselves via the X-Tenant header, unknown tenants get an isolated weight-1 queue")
		schedQueue = flag.Int("sched-queue", 256, "per-tenant queue bound under -tenants; enqueues beyond it shed with 429 (0 = unbounded)")
		adaptive   = flag.Bool("adaptive", false, "enable the AIMD adaptive concurrency limiter and CoDel queue discipline")
		codelTgt   = flag.Duration("codel-target", 0, "CoDel sojourn target (0 = default 5ms; implies CoDel even without -adaptive)")
		codelIvl   = flag.Duration("codel-interval", 0, "CoDel observation interval (0 = default 100ms; implies CoDel even without -adaptive)")
		maxPending = flag.Int("max-pending", 0, "admission-control bound on pending requests (0 = default 16x workers, negative = unbounded)")
		degradeAt  = flag.Int("degrade-at", 0, "pending-request watermark for degraded fallback responses (0 = off)")
		shards     = flag.Int("shards", 0, "catalog shards for in-process scatter-gather retrieval (0/1 = unsharded)")
		partition  = flag.String("partition", "", "serve one catalog partition as a shard worker, as index:from:to (e.g. 0:0:25000)")
		gateway    = flag.String("gateway", "", "front a sharded fleet: shard groups separated by ';', replica URLs within a group by ',' (e.g. http://a:1,http://a:2;http://b:1)")
		partial    = flag.Bool("partial", false, "serve partial results when shards fail (requires -gateway; responses carry X-Degraded/X-Coverage)")
		minCov     = flag.Float64("min-coverage", 0.5, "minimum shard-coverage fraction under -partial; below it requests fail 503")
		static     = flag.Bool("static", false, "serve empty responses without a model")
		traced     = flag.Bool("trace", false, "record per-stage latency histograms (exposed at /metrics)")
		profiled   = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
		bucketDir  = flag.String("bucket", "", "filesystem bucket to load the model from")
		key        = flag.String("key", "", "model manifest key within the bucket")
		releases   = flag.Bool("releases", false, "deploy from the bucket's versioned release store (releases/ namespace) instead of a raw -key manifest; enables the /admin/deploy hot-swap endpoint")
		modelVer   = flag.Int("model-version", 0, "release version to serve under -releases (0 = the store's CURRENT pointer); canary pods pin a version here")
		watchRel   = flag.Duration("watch-releases", 0, "poll the release store at this interval and hot-swap onto newly promoted versions (0 = off)")
		port       = flag.Int("port", 8080, "listen port")
		drainTO    = flag.Duration("drain-timeout", 5*time.Second, "bound on in-flight work during graceful shutdown")
		drainStl   = flag.Duration("drain-settle", 200*time.Millisecond, "pause between failing readiness and closing the listener (lets racing picks connect)")
	)
	flag.Parse()

	// Listener first: the process serves /live the moment it can serve
	// anything, so cold start is observable before the model exists.
	addr := fmt.Sprintf(":%d", *port)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		log.Fatalf("etude-server: %v", err)
	}
	var handler atomic.Pointer[http.Handler]
	boot := bootstrapHandler()
	handler.Store(&boot)
	hs := &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*handler.Load()).ServeHTTP(w, r)
	})}
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()

	part, err := parsePartition(*partition)
	if err != nil {
		log.Fatalf("etude-server: %v", err)
	}
	srv, err := buildServer(*modelName, *catalog, *seed, *topK, *faithful, *jit, *workers, *shards, *maxPending, *degradeAt, part, *gateway, *partial, *minCov, *batch, *tenants, *schedQueue, *static, *traced, *profiled, *adaptive, *codelTgt, *codelIvl, *bucketDir, *key, *releases, *modelVer, *watchRel)
	if err != nil {
		log.Fatalf("etude-server: %v", err)
	}
	defer srv.Close()
	real := srv.Handler()
	handler.Store(&real)

	switch {
	case srv.ModelVersion() > 0:
		log.Printf("serving %s release v%d (C=%d, jit=%v, watch=%v) on %s",
			srv.Model().Name(), srv.ModelVersion(), srv.Model().Config().CatalogSize, srv.JITActive(), *watchRel, addr)
	case srv.Model() != nil:
		log.Printf("serving %s (C=%d, jit=%v) on %s", srv.Model().Name(), srv.Model().Config().CatalogSize, srv.JITActive(), addr)
	case srv.Gateway() != nil:
		log.Printf("serving scatter-gather gateway (%d shard groups, policy %s) on %s",
			srv.Gateway().Shards(), srv.Gateway().Policy().Mode, addr)
	default:
		log.Printf("serving static responses on %s", addr)
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGTERM, os.Interrupt)
	select {
	case err := <-serveErr:
		log.Fatalf("etude-server: %v", err)
	case sig := <-sigc:
		log.Printf("%v: draining (settle %v, timeout %v)", sig, *drainStl, *drainTO)
	}

	// Graceful drain: fail readiness, let endpoint updates propagate, then
	// shut the listener down waiting for in-flight work.
	srv.BeginDrain()
	time.Sleep(*drainStl)
	ctx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- hs.Shutdown(ctx) }()
	select {
	case err := <-done:
		if err != nil {
			// Deadline expired with requests still in flight: force-close
			// and report the kill through the exit code.
			_ = hs.Close()
			log.Printf("drain deadline expired, force-closing")
			srv.Close()
			os.Exit(1)
		}
		log.Printf("drained cleanly")
	case sig := <-sigc:
		log.Printf("%v during drain: exiting immediately", sig)
		_ = hs.Close()
		srv.Close()
		os.Exit(1)
	}
}

// bootstrapHandler serves the pre-model window: alive but not ready.
func bootstrapHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc(httpapi.LivePath, func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "model loading", http.StatusServiceUnavailable)
	})
	return mux
}

// parsePartition decodes the -partition flag ("index:from:to").
func parsePartition(s string) (*shard.Partition, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return nil, fmt.Errorf("-partition wants index:from:to, got %q", s)
	}
	var nums [3]int
	for i, p := range parts {
		n, err := strconv.Atoi(p)
		if err != nil {
			return nil, fmt.Errorf("-partition wants index:from:to, got %q: %v", s, err)
		}
		nums[i] = n
	}
	return &shard.Partition{Index: nums[0], From: nums[1], To: nums[2]}, nil
}

// parseGateway decodes the -gateway flag: shard groups separated by ';',
// replica base URLs within a group by ','.
func parseGateway(s string) ([]shard.Picker, error) {
	if s == "" {
		return nil, nil
	}
	var pickers []shard.Picker
	for _, group := range strings.Split(s, ";") {
		var urls []string
		for _, u := range strings.Split(group, ",") {
			if u = strings.TrimSpace(u); u != "" {
				urls = append(urls, u)
			}
		}
		if len(urls) == 0 {
			return nil, fmt.Errorf("-gateway has an empty shard group in %q", s)
		}
		pickers = append(pickers, shard.NewStaticPicker(urls...))
	}
	return pickers, nil
}

func buildServer(modelName string, catalog int, seed int64, topK int, faithful, jit bool, workers, shards, maxPending, degradeAt int, partition *shard.Partition, gateway string, partial bool, minCoverage float64, batch bool, tenants string, schedQueue int, static, traced, profiled, adaptive bool, codelTarget, codelInterval time.Duration, bucketDir, key string, releases bool, modelVersion int, watchReleases time.Duration) (*server.Server, error) {
	opts := server.Options{
		Workers: workers, JIT: jit, Shards: shards, Profiling: profiled,
		MaxPending: maxPending, DegradeAt: degradeAt, Partition: partition,
	}
	if traced {
		opts.Tracer = trace.New(trace.Options{})
	}
	if batch {
		cfg := batching.DefaultConfig()
		opts.Batch = &cfg
	}
	if tenants != "" {
		tcs, err := sched.ParseTenants(tenants)
		if err != nil {
			return nil, err
		}
		bat := batching.DefaultConfig()
		opts.Sched = &sched.Config{
			Tenants:    tcs,
			MaxBatch:   bat.MaxBatch,
			FlushEvery: bat.FlushEvery,
			MaxQueue:   schedQueue,
		}
	}
	if adaptive {
		opts.Limiter = overload.NewLimiter(overload.DefaultLimiterConfig())
	}
	if adaptive || codelTarget > 0 || codelInterval > 0 {
		cfg := overload.DefaultCoDelConfig()
		if codelTarget > 0 {
			cfg.Target = codelTarget
		}
		if codelInterval > 0 {
			cfg.Interval = codelInterval
		}
		opts.CoDel = overload.NewCoDel(cfg, nil)
	}
	switch {
	case gateway != "":
		pickers, err := parseGateway(gateway)
		if err != nil {
			return nil, err
		}
		var pol shard.Policy
		if partial {
			pol = shard.Policy{Mode: shard.PolicyPartial, MinCoverage: minCoverage}
		}
		gw, err := shard.NewGateway(pickers, shard.GatewayConfig{K: topK, Policy: pol})
		if err != nil {
			return nil, err
		}
		opts.Gateway = gw
		return server.New(nil, opts)
	case static:
		return server.NewStatic(), nil
	case releases:
		if bucketDir == "" {
			return nil, fmt.Errorf("-releases requires -bucket")
		}
		bucket, err := objstore.NewFSBucket(bucketDir)
		if err != nil {
			return nil, err
		}
		return server.LoadFromReleases(deploy.NewStore(bucket), modelVersion, watchReleases, opts)
	case bucketDir != "":
		if key == "" {
			return nil, fmt.Errorf("-bucket requires -key")
		}
		bucket, err := objstore.NewFSBucket(bucketDir)
		if err != nil {
			return nil, err
		}
		return server.LoadFromBucket(bucket, key, opts)
	case modelName != "":
		m, err := model.New(modelName, model.Config{
			CatalogSize: catalog, Seed: seed, TopK: topK, Faithful: faithful,
		})
		if err != nil {
			return nil, err
		}
		return server.New(m, opts)
	default:
		flag.Usage()
		os.Exit(2)
		return nil, nil
	}
}
