// Command etude is the benchmarking framework's front door: it provisions
// local infrastructure (the `make infra` analogue), runs the paper's
// experiments, executes declarative live benchmarks (the
// `make run_deployed_benchmark` analogue) and renders stored results.
//
// Usage:
//
//	etude infra -bucket ./bucket
//	etude benchmark -experiment fig2|fig3|fig4|table1|validation|issues|runtimes|autoscale|chaos|overload|rolling|deploy|breakdown|shard|blackout|tenant|procs [-scale test|paper] [-pods inproc|proc]
//	etude bench -grid bench/smoke.json [-update-baseline]
//	etude bench pair -base HEAD -workload scan_1m -n 4
//	etude deploy publish|promote|rollback|list|status -bucket ./bucket
//	etude live -model gru4rec -catalog 10000 -rate 100 -duration 30s [-bucket ./bucket]
//	etude report -bucket ./bucket -key results/live.json
//	etude advise -model gru4rec -catalog 10000000 -rate 1000
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"runtime/pprof"
	"time"

	"etude/internal/advisor"
	"etude/internal/bench"
	"etude/internal/cluster"
	"etude/internal/core"
	"etude/internal/device"
	"etude/internal/experiments"
	"etude/internal/metrics"
	"etude/internal/model"
	"etude/internal/objstore"
	rpt "etude/internal/report"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "infra":
		infra(os.Args[2:])
	case "benchmark":
		benchmark(os.Args[2:])
	case "bench":
		benchCmd(os.Args[2:])
	case "deploy":
		deployCmd(os.Args[2:])
	case "live":
		live(os.Args[2:])
	case "report":
		report(os.Args[2:])
	case "advise":
		advise(os.Args[2:])
	case "models":
		models(os.Args[2:])
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  etude infra     -bucket DIR
  etude benchmark -experiment fig2|fig3|fig4|table1|validation|issues|runtimes|autoscale|chaos|overload|rolling|deploy|breakdown|shard|blackout|tenant|procs [-scale test|paper] [-pods inproc|proc] [-bucket DIR]
  etude bench     -grid SPEC.json [-out DIR] [-baseline DIR] [-update-baseline] [-no-gate]
  etude bench     pair -base REV -workload NAME -n PAIRS [-seed N]
  etude deploy    publish  -bucket DIR -model NAME -catalog C [-seed N] [-notes S] [-promote]
  etude deploy    promote  -bucket DIR -version N
  etude deploy    rollback -bucket DIR [-reason S]
  etude deploy    list     -bucket DIR
  etude deploy    status   -bucket DIR
  etude live      -model NAME -catalog C -rate R -duration D [-bucket DIR] [-replicas N]
  etude report    -bucket DIR -key KEY
  etude advise    -model NAME -catalog C -rate R [-slo D]
  etude models    [-catalog C]`)
	os.Exit(2)
}

// infra provisions the local stand-ins for the paper's one-time cloud
// setup: a filesystem bucket for model artifacts and results.
func infra(args []string) {
	fs := flag.NewFlagSet("infra", flag.ExitOnError)
	bucketDir := fs.String("bucket", "./etude-bucket", "bucket directory to provision")
	_ = fs.Parse(args)
	if _, err := objstore.NewFSBucket(*bucketDir); err != nil {
		log.Fatalf("etude infra: %v", err)
	}
	fmt.Printf("provisioned bucket at %s\n", *bucketDir)
	fmt.Println("infrastructure ready: deploy with `etude live` or run `etude benchmark`")
}

func benchmark(args []string) {
	fs := flag.NewFlagSet("benchmark", flag.ExitOnError)
	exp := fs.String("experiment", "", "experiment to run (see `etude benchmark -experiment list`)")
	scale := fs.String("scale", "test", "smoke (fastest), test (seconds) or paper (paper-scale parameters)")
	pods := fs.String("pods", "inproc", "pod substrate for cluster experiments: inproc (goroutine HTTP servers) or proc (real etude-server processes)")
	bucketDir := fs.String("bucket", "", "optional bucket directory for JSON results")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the experiment to this file (inspect with `go tool pprof`)")
	verbose := fs.Bool("v", false, "log cluster diagnostics (restarts, breaker trips, force-kills) to stderr")
	_ = fs.Parse(args)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *exp == "list" {
		for _, name := range experiments.Names() {
			fmt.Println(name)
		}
		return
	}
	sc, err := experiments.ParseScale(*scale)
	if err != nil {
		log.Fatalf("etude benchmark: %v", err)
	}
	if *pods != "inproc" && *pods != "proc" {
		log.Fatalf("etude benchmark: -pods must be inproc or proc, got %q", *pods)
	}
	if *verbose {
		cluster.SetLogger(cluster.NewTextLogger(os.Stderr))
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatalf("etude benchmark: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("etude benchmark: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	out, err := runExperimentAt(ctx, *exp, sc, *pods)
	if err != nil {
		log.Fatalf("etude benchmark: %v", err)
	}
	fmt.Println(out)
	if *bucketDir != "" {
		bucket, err := objstore.NewFSBucket(*bucketDir)
		if err != nil {
			log.Fatalf("etude benchmark: %v", err)
		}
		key := fmt.Sprintf("results/%s.txt", *exp)
		if err := bucket.Put(key, []byte(out)); err != nil {
			log.Fatalf("etude benchmark: %v", err)
		}
		fmt.Printf("results written to %s/%s\n", *bucketDir, key)
	}
}

// benchCmd is the reproduction harness: it executes a declarative
// experiment grid (every listed experiment, once per seed) into a fresh
// timestamped results directory, schema-validating every CSV it writes
// and aggregating the repeats into BENCH_<experiment>.json summaries.
// Unless told otherwise it then gates those summaries against the
// committed baselines and exits non-zero when a metric regressed beyond
// its noise band, naming the trace stage that moved with it.
func benchCmd(args []string) {
	if len(args) > 0 && args[0] == "pair" {
		benchPair(args[1:])
		return
	}
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	gridPath := fs.String("grid", "bench/smoke.json", "experiment grid spec (JSON)")
	outDir := fs.String("out", "results/runs", "parent directory for timestamped run directories")
	baselineDir := fs.String("baseline", "results/baselines", "directory holding the committed BENCH_*.json baselines")
	update := fs.Bool("update-baseline", false, "write this run's summaries into -baseline instead of gating against it")
	noGate := fs.Bool("no-gate", false, "produce artifacts without comparing against baselines")
	_ = fs.Parse(args)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	grid, err := bench.LoadGrid(*gridPath)
	if err != nil {
		log.Fatalf("etude bench: %v", err)
	}
	rep, err := bench.Run(ctx, bench.RunOptions{Grid: grid, OutDir: *outDir, Log: os.Stderr})
	if err != nil {
		log.Fatalf("etude bench: %v", err)
	}
	fmt.Printf("results: %s\n", rep.Dir)
	if *update {
		if err := os.MkdirAll(*baselineDir, 0o755); err != nil {
			log.Fatalf("etude bench: %v", err)
		}
		for _, sum := range rep.Summaries {
			path, err := bench.WriteSummary(*baselineDir, sum)
			if err != nil {
				log.Fatalf("etude bench: %v", err)
			}
			fmt.Printf("baseline updated: %s\n", path)
		}
		return
	}
	if *noGate {
		return
	}
	findings, missing, err := bench.GateDir(*baselineDir, rep.Summaries, bench.DefaultGateConfig())
	if err != nil {
		log.Fatalf("etude bench: %v", err)
	}
	for _, exp := range missing {
		fmt.Printf("no baseline for %s in %s (run with -update-baseline to create one)\n", exp, *baselineDir)
	}
	for _, f := range findings {
		fmt.Println(f.String())
	}
	if regs := bench.Regressions(findings); len(regs) > 0 {
		log.Fatalf("etude bench: %d metric(s) regressed beyond the noise band", len(regs))
	}
	fmt.Printf("gate passed: %d experiment summaries within the noise band of %s\n",
		len(rep.Summaries)-len(missing), *baselineDir)
}

// runExperiment drives one registry experiment and renders its result.
// paper=false runs the test scale; pods selects the cluster substrate.
func runExperiment(ctx context.Context, name string, paper bool, pods string) (string, error) {
	scale := experiments.ScaleTest
	if paper {
		scale = experiments.ScalePaper
	}
	return runExperimentAt(ctx, name, scale, pods)
}

func runExperimentAt(ctx context.Context, name string, scale experiments.Scale, pods string) (string, error) {
	def, ok := experiments.Lookup(name)
	if !ok {
		return "", fmt.Errorf("unknown experiment %q", name)
	}
	res, err := def.Run(ctx, experiments.Params{Scale: scale, Pods: pods})
	if err != nil {
		return "", err
	}
	out := res.Render()
	// Fig 2 ships its plot-ready per-tick series alongside the summary.
	if f2, ok := res.(*experiments.Fig2Result); ok {
		for _, series := range []experiments.Fig2Series{f2.Etude, f2.TorchServe} {
			var csv bytes.Buffer
			if err := rpt.WriteSeriesCSV(&csv, series.Series); err != nil {
				return "", err
			}
			out += fmt.Sprintf("\n[series CSV: %s]\n%s", series.Server, csv.String())
		}
	}
	return out, nil
}

// live runs a declaratively specified benchmark against a real in-process
// deployment, like the paper's `make run_deployed_benchmark`.
func live(args []string) {
	fs := flag.NewFlagSet("live", flag.ExitOnError)
	var (
		modelName   = fs.String("model", "gru4rec", "model to deploy")
		catalog     = fs.Int("catalog", 10_000, "catalog size C")
		rate        = fs.Float64("rate", 100, "target throughput (req/s)")
		duration    = fs.Duration("duration", 30*time.Second, "ramp duration")
		replicas    = fs.Int("replicas", 1, "serving replicas")
		jit         = fs.Bool("jit", true, "serve the JIT-compiled variant")
		alphaLength = fs.Float64("alpha-length", 2.2, "session-length exponent α_l")
		alphaClicks = fs.Float64("alpha-clicks", 1.6, "click-count exponent α_c")
		bucketDir   = fs.String("bucket", "", "optional bucket directory for JSON results")
		seed        = fs.Int64("seed", 1, "seed")
	)
	_ = fs.Parse(args)

	var bucket objstore.Bucket = objstore.NewMemBucket()
	if *bucketDir != "" {
		fsb, err := objstore.NewFSBucket(*bucketDir)
		if err != nil {
			log.Fatalf("etude live: %v", err)
		}
		bucket = fsb
	}
	c := cluster.New(bucket)
	defer c.Teardown()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	spec := core.Spec{
		Name:        "live",
		Models:      []string{*modelName},
		Instances:   []string{"cpu"},
		CatalogSize: *catalog,
		JIT:         *jit,
		TargetRate:  *rate,
		Duration:    *duration,
		AlphaLength: *alphaLength,
		AlphaClicks: *alphaClicks,
		Replicas:    *replicas,
		Seed:        *seed,
	}
	log.Printf("deploying %s (C=%d, %d replica(s)) and ramping to %.0f req/s over %v",
		*modelName, *catalog, *replicas, *rate, *duration)
	ms, err := core.RunLive(ctx, c, spec)
	if err != nil {
		log.Fatalf("etude live: %v", err)
	}
	for _, m := range ms {
		fmt.Printf("%s on %s: sent=%d errors=%d backpressured=%d meetsSLO=%v\n",
			m.Model, m.Instance, m.Sent, m.Errors, m.Backpressured, m.MeetsSLO)
		fmt.Printf("latency: %s\n", m.Latency)
		fmt.Printf("outcomes: %s\n", m.Outcomes)
	}
	if *bucketDir != "" {
		if err := core.SaveResults(bucket, "results/live.json", ms); err != nil {
			log.Fatalf("etude live: %v", err)
		}
		var csv bytes.Buffer
		if err := rpt.WriteMeasurementsCSV(&csv, ms); err != nil {
			log.Fatalf("etude live: %v", err)
		}
		if err := bucket.Put("results/live.csv", csv.Bytes()); err != nil {
			log.Fatalf("etude live: %v", err)
		}
		for _, m := range ms {
			var seriesCSV bytes.Buffer
			if err := rpt.WriteSeriesCSV(&seriesCSV, m.Series); err != nil {
				log.Fatalf("etude live: %v", err)
			}
			key := fmt.Sprintf("results/live-%s-series.csv", m.Model)
			if err := bucket.Put(key, seriesCSV.Bytes()); err != nil {
				log.Fatalf("etude live: %v", err)
			}
		}
		fmt.Printf("results written to %s/results/ (json + csv)\n", *bucketDir)
	}
}

func report(args []string) {
	fs := flag.NewFlagSet("report", flag.ExitOnError)
	bucketDir := fs.String("bucket", "./etude-bucket", "bucket directory")
	key := fs.String("key", "results/live.json", "results key")
	charts := fs.Bool("charts", false, "render per-tick p90 charts")
	_ = fs.Parse(args)

	bucket, err := objstore.NewFSBucket(*bucketDir)
	if err != nil {
		log.Fatalf("etude report: %v", err)
	}
	ms, err := core.LoadResults(bucket, *key)
	if err != nil {
		log.Fatalf("etude report: %v", err)
	}
	fmt.Printf("%-12s %-10s %8s %8s %12s %12s %5s\n", "model", "instance", "sent", "errors", "p50", "p90", "SLO")
	for _, m := range ms {
		slo := "no"
		if m.MeetsSLO {
			slo = "yes"
		}
		fmt.Printf("%-12s %-10s %8d %8d %12s %12s %5s\n",
			m.Model, m.Instance, m.Sent, m.Errors,
			m.Latency.P50.Round(time.Microsecond), m.Latency.P90.Round(time.Microsecond), slo)
		if m.Outcomes != (metrics.OutcomeCounts{}) {
			fmt.Printf("  outcomes: %s\n", m.Outcomes)
		}
	}
	if *charts {
		for _, m := range ms {
			if len(m.Series) == 0 {
				continue
			}
			fmt.Println()
			fmt.Print(rpt.ASCIIChart(
				fmt.Sprintf("%s on %s — p90 per tick (ms)", m.Model, m.Instance),
				rpt.P90Series(m.Series), 40))
		}
	}
}

// advise recommends the cheapest instance fleet for a declaratively
// specified workload (simulated capacity search + end-to-end validation).
func advise(args []string) {
	fs := flag.NewFlagSet("advise", flag.ExitOnError)
	var (
		modelName = fs.String("model", "gru4rec", "model to deploy")
		catalog   = fs.Int("catalog", 100_000, "catalog size C")
		rate      = fs.Float64("rate", 250, "required throughput (req/s)")
		slo       = fs.Duration("slo", 50*time.Millisecond, "p90 latency budget")
		seed      = fs.Int64("seed", 1, "simulation seed")
	)
	_ = fs.Parse(args)

	advice, err := advisor.Advise(advisor.Request{
		Model:       *modelName,
		CatalogSize: *catalog,
		TargetRate:  *rate,
		SLO:         *slo,
		Seed:        *seed,
	})
	if err != nil {
		log.Fatalf("etude advise: %v", err)
	}
	fmt.Print(advice.Render())
}

// models lists the supported SBR models with their parameter counts and
// estimated serial inference latency at the given catalog size.
func models(args []string) {
	fs := flag.NewFlagSet("models", flag.ExitOnError)
	catalog := fs.Int("catalog", 100_000, "catalog size C for the estimates")
	_ = fs.Parse(args)

	fmt.Printf("catalog: %d items (d=%d)\n", *catalog, model.HeuristicDim(*catalog))
	fmt.Printf("%-10s %12s %14s %14s %8s %8s\n", "model", "parameters", "cpu-eager", "cpu-jit", "jit-able", "healthy")
	for _, name := range model.Names() {
		cfg := model.Config{CatalogSize: *catalog, Seed: 1}
		m, err := model.New(name, cfg)
		if err != nil {
			log.Fatalf("etude models: %v", err)
		}
		params := 0
		if src, ok := m.(model.ParamSource); ok {
			for _, p := range src.Params() {
				params += p.Len()
			}
		}
		_, jitable := m.(model.JITCompilable)
		cost, err := model.EstimateCost(name, cfg, 3)
		if err != nil {
			log.Fatalf("etude models: %v", err)
		}
		cpu := device.CPU()
		healthy := "yes"
		for _, b := range model.BrokenModels() {
			if b == name {
				healthy = "no"
			}
		}
		fmt.Printf("%-10s %12d %14s %14s %8v %8s\n",
			name, params,
			cpu.SerialInference(cost, false).Round(time.Microsecond),
			cpu.SerialInference(cost, true).Round(time.Microsecond),
			jitable, healthy)
	}
}
