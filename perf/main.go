// Command perf is the repository's benchmark: four closed-loop serving
// workloads, seven end-to-end metrics per workload, and a traced run that
// times every layer from the outside. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"time"

	"etude/internal/buildinfo"
)

// metricValue is one metric in the contract's result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// contractLine is the last line of standard output of every run.
type contractLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runRecord is the -json form of one invocation.
type runRecord struct {
	Build      buildinfo.Info `json:"build"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	NumCPU     int            `json:"num_cpu"`
	Runs       []*runResult   `json:"runs"`
}

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		name      = flag.String("workload", "all", "workload to run: all, or one of the four names")
		seed      = flag.Int64("seed", 1, "seed of the session pool and the model weights")
		seconds   = flag.Float64("seconds", 24, "seconds one run measures (serial and saturate slices get half each)")
		traced    = flag.Int("trace", 0, "1 = traced run reporting the per-layer metrics, 0 = end-to-end metrics")
		asJSON    = flag.Bool("json", false, "print one machine-readable record instead of the tables")
		outDir    = flag.String("out", "perf/out", "directory for trace-<workload>.json")
		selfcheck = flag.Bool("selfcheck", false, "run the suite as two interleaved sets and compare them against the bounds")
		n         = flag.Int("n", 5, "runs per set and workload for -selfcheck")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perf: unexpected argument %q\n", flag.Arg(0))
		return 2
	}
	// Never more than two: the sandbox has two cores, and the load model
	// has at most two clients.
	procs := runtime.NumCPU()
	if procs > 2 {
		procs = 2
	}
	runtime.GOMAXPROCS(procs)

	defs := workloads
	if *name != "all" {
		def, ok := findWorkload(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "perf: unknown workload %q\n", *name)
			return 2
		}
		defs = []workloadDef{def}
	}
	measure := time.Duration(*seconds * float64(time.Second))
	if *selfcheck {
		return runSelfcheck(defs, *n, *seed, *seconds)
	}

	rec := runRecord{Build: buildinfo.Get(), GOMAXPROCS: procs, NumCPU: runtime.NumCPU()}
	line := contractLine{Correct: true, Metrics: map[string]metricValue{}}
	for _, def := range defs {
		res, err := runWorkload(def, fullSize, *seed, measure, *traced == 1, *outDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perf: %v\n", err)
			return 1
		}
		rec.Runs = append(rec.Runs, res)
		if !*asJSON {
			printRun(res)
		}
		line.Attempted += res.Attempted
		line.Failed += res.Failed
		for _, d := range res.defs {
			key := d.Name
			if len(defs) > 1 {
				key = def.Name + "/" + d.Name
			}
			v := res.Metrics[d.Name]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				fmt.Fprintf(os.Stderr, "perf: %s/%s is not a number (no samples?)\n", def.Name, d.Name)
				return 1
			}
			line.Metrics[key] = metricValue{v, d.Unit}
		}
	}
	line.Correct = line.Failed == 0
	if *asJSON {
		if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
			fmt.Fprintf(os.Stderr, "perf: %v\n", err)
			return 1
		}
	}
	if err := json.NewEncoder(os.Stdout).Encode(line); err != nil {
		fmt.Fprintf(os.Stderr, "perf: %v\n", err)
		return 1
	}
	if !line.Correct {
		fmt.Fprintf(os.Stderr, "perf: %d of %d requests failed or did not verify\n", line.Failed, line.Attempted)
		return 1
	}
	return 0
}

func printRun(r *runResult) {
	mode := "end-to-end"
	if r.Traced {
		mode = "traced"
	}
	fmt.Printf("== %s  seed=%d  %s  measure=%gs  GOMAXPROCS=%d  pool=%s  request_bytes=%d\n",
		r.Workload, r.Seed, mode, r.Seconds, runtime.GOMAXPROCS(0), r.PoolDigest, r.RequestBytes)
	for _, p := range r.Phases {
		fmt.Printf("   phase %-16s clients=%d attempted=%d succeeded=%d failed=%d verified=%d\n",
			p.Name, p.Clients, p.Attempted, p.Succeeded, p.Failed, p.Verified)
	}
	if r.ColdCatalog {
		fmt.Println("   catalog flushed from the caches before every request")
	}
	if r.LatencySamples > 0 {
		fmt.Printf("   latency percentiles over %d requests, the calm quarter of the serial slices\n", r.LatencySamples)
	}
	if r.FailReason != "" {
		fmt.Printf("   first failure: %s\n", r.FailReason)
	}
	for _, d := range r.defs {
		bound := ""
		if d.Bound > 0 {
			bound = fmt.Sprintf("  (%s is better, bound %.2f)", d.Better, d.Bound)
		}
		fmt.Printf("   %s/%-28s %14.6g %-7s%s\n", r.Workload, d.Name, r.Metrics[d.Name], d.Unit, bound)
	}
}
