# Mirrors the paper's automation entry points (`make infra`,
# `make run_deployed_benchmark`) on top of the Go toolchain.

BUCKET ?= ./etude-bucket
MODEL ?= gru4rec
CATALOG ?= 10000
RATE ?= 100
DURATION ?= 30s
EXPERIMENT ?= table1
SCALE ?= test
# Pod substrate for cluster experiments: inproc (goroutine HTTP servers)
# or proc (real etude-server processes behind the local control plane).
PODS ?= inproc

.PHONY: build test bench vet race check procs flake perf reproduce baseline gate infra run_deployed_benchmark benchmark profile advise clean

# Process tests exec a real etude-server; build it once here so every test
# package shares one binary instead of each invoking `go build`.
bin/etude-server: $(shell find cmd internal -name '*.go') go.mod
	go build -o bin/etude-server ./cmd/etude-server

# The bench harness runs from a built binary, not `go run`: only a real
# `go build` embeds the VCS stamp that buildinfo turns into the git SHA on
# every CSV and BENCH_*.json the harness writes.
bin/etude: $(shell find cmd internal -name '*.go') go.mod
	go build -o bin/etude ./cmd/etude

build:
	go build ./...

test:
	go test ./...

bench:
	go test -run '^$$' -bench=. -benchmem ./...

vet:
	go vet ./...

# Static analysis plus the full suite under the race detector — the gate
# for the concurrent resilience paths (admission control, retries,
# balancer ejection).
race:
	go vet ./...
	go test -race ./...

# The merge gate (also run by CI): gofmt (any file `gofmt -l` lists fails
# it), build + vet + full suite, plus the race
# detector on the packages with real concurrency — the cluster lifecycle
# (drain/scale/rolling-update/supervisor, the process runner and control
# plane), the server's admission control, the batching loop and the
# multi-tenant scheduler it drives, the load generator, the
# scatter-gather retrieval tier (goroutine fan-out, hedged sub-requests,
# partial top-k merge, the partial-result policy and its group breakers),
# the overload controllers (CoDel, AIMD limiter) hammered from many
# goroutines, the chaos drivers including the shard-blackout scenario, and
# the data plane (the scan kernel and the per-request goroutines of the
# core split in topk.TopK, reached through every model).
# Process tests (real SIGKILL blackouts included) use the prebuilt
# bin/etude-server; skip them with `go test -short`.
# `GOARCH=arm64 go vet` keeps the pure-Go fallbacks of the amd64 assembly
# kernels (tensor's dot_other.go and gemm_other.go, topk's
# threshold_other.go) compiling, while the amd64 vet holds each .s file to
# its Go declaration (asmdecl). One iteration of every benchmark in the
# tree (the scan ladder, the loadgen and sim ablations, the per-model Recommend
# grid) keeps them compiling and running.
# Then the perf-regression gate: it re-runs the smoke grid
# (bench/smoke.json) and fails when any gated metric drifts beyond the
# noise band of the committed baselines in results/baselines/, naming the
# trace stage that moved with it. The last step is process hygiene
# (`make procs`): a test or gate run that left an etude-server, test
# binary or benchmark process running fails the check.
check: bin/etude-server bin/etude
	@unformatted=$$(gofmt -l internal cmd perf examples); \
		if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi
	go build ./...
	go vet ./...
	GOARCH=arm64 go vet ./...
	ETUDE_SERVER_BIN=$(CURDIR)/bin/etude-server go test ./...
	go test -run '^$$' -bench . -benchtime 1x ./...
	ETUDE_SERVER_BIN=$(CURDIR)/bin/etude-server go test -race ./internal/cluster ./internal/server ./internal/loadgen ./internal/trace ./internal/metrics ./internal/shard ./internal/topk ./internal/overload ./internal/chaos ./internal/leakcheck ./internal/batching ./internal/sched ./internal/workload ./internal/deploy ./internal/tensor ./internal/model
	ETUDE_SERVER_BIN=$(CURDIR)/bin/etude-server bin/etude bench -grid bench/smoke.json
	@$(MAKE) --no-print-directory procs

# Process hygiene: exits 1, naming them, if any process other than the
# caller has its working directory or executable inside the repository —
# a server, test binary or benchmark run that outlived its command. Run it
# last, after builds, tests and benchmarks have returned.
procs:
	@bash scripts/procs.sh

# Flake hunt: the tests of PKGS run three times over (go test -count=3)
# beside two CPU-bound busy loops, the load under which timing-sensitive
# tests fail; RUN narrows them to a -run pattern, e.g.
#   make flake PKGS=./internal/experiments RUN='TestDeployStudy$$'
# The recipe starts and kills the busy loops itself and ends with
# `make procs`.
PKGS ?= ./...
RUN ?=
flake:
	@bash -c 'for i in 1 2; do (while :; do :; done) & done; \
		trap "kill \$$(jobs -p) 2>/dev/null; wait" EXIT; \
		go test -count=3 $(if $(RUN),-run "$(RUN)") $(PKGS)'
	@$(MAKE) --no-print-directory procs

# The repository's benchmark (BENCHMARK.json): absolute wall-clock numbers
# for one workload, or all four when WORKLOAD is unset, e.g.
#   make perf WORKLOAD=scan_1m SEED=7
# To compare the working tree with a revision on paired runs, build bin/etude
# and run `bin/etude bench pair -base HEAD -workload scan_1m -n 4`.
WORKLOAD ?= all
SEED ?= 1
perf:
	bash perf/run.sh --workload $(WORKLOAD) --seed $(SEED)

# One-command reproduction of the paper: run every experiment in
# bench/full.json three times (independent seeds) into a timestamped
# directory under results/runs/, schema-validating every CSV and
# aggregating the repeats into median+IQR BENCH_<experiment>.json
# summaries stamped with the build identity (git SHA, go version, host).
reproduce: bin/etude-server bin/etude
	ETUDE_SERVER_BIN=$(CURDIR)/bin/etude-server bin/etude bench -grid bench/full.json -no-gate

# Refresh the committed perf baselines from the smoke grid. Run this on an
# intentional perf change (or improvement) and commit the diff under
# results/baselines/ — the gate compares every future run against it.
baseline: bin/etude-server bin/etude
	ETUDE_SERVER_BIN=$(CURDIR)/bin/etude-server bin/etude bench -grid bench/smoke.json -update-baseline

# The perf-regression gate on its own (also the last step of `make check`).
gate: bin/etude-server bin/etude
	ETUDE_SERVER_BIN=$(CURDIR)/bin/etude-server bin/etude bench -grid bench/smoke.json

# One-time infrastructure provisioning (the paper's `make infra`): creates
# the local object-store bucket used for model artifacts and results.
infra:
	go run ./cmd/etude infra -bucket $(BUCKET)

# Deploy a model behind readiness probes and load test it (the paper's
# `make run_deployed_benchmark`). Results land in $(BUCKET)/results/.
run_deployed_benchmark:
	go run ./cmd/etude live -model $(MODEL) -catalog $(CATALOG) -rate $(RATE) \
		-duration $(DURATION) -bucket $(BUCKET)

# Regenerate a paper experiment:
#   make benchmark EXPERIMENT=fig2|fig3|fig4|table1|validation|issues|runtimes|autoscale|chaos|overload|rolling|deploy|breakdown|shard|blackout|tenant
# EXPERIMENT=chaos replays a fig4-style workload under each fault scenario
# (pod crash, slow node, degraded network, AZ outage) and reports
# p50/p99/error-rate/degraded-fraction per scenario, deterministically.
# EXPERIMENT=rolling drives sustained live load through a rolling model swap
# (drained vs. drainless) and a supervised pod crash, reporting error rate,
# p99, degraded fraction, forced kills and MTTR per phase.
# EXPERIMENT=breakdown traces every request through the serving path and
# prints the per-stage latency table (queue-wait, admission, batch-assembly,
# embedding-lookup, encoder-forward, mips-topk, serialize) per model and
# catalog size, reconciling the stage sum against the end-to-end latency.
# EXPERIMENT=overload replays a deterministic 3× load spike against one
# instance under three admission stacks — static bounded queue, + deadline
# budgets (expired work dropped at dequeue, before the encoder), + CoDel and
# the AIMD concurrency limiter — and reports goodput over the spike window,
# admitted p50/p99, and the drop counters per arm.
# EXPERIMENT=shard sweeps the catalog-sharded scatter-gather tier over
# S ∈ {1,2,4,8}: verifies the sharded top-k is bit-identical to unsharded,
# reports the p50 MIPS-latency speedup per shard count on large catalogs,
# compares p99 with/without tail-latency hedging under a 10×-slow shard,
# and prints the sharded deployment options from the cost model.
# EXPERIMENT=blackout kills every replica of one of S=4 shard groups mid-run
# (forever) and compares fail-fast vs partial-result serving: post-blackout
# availability (~0% vs ~100% at (S-1)/S coverage), the degraded-response and
# coverage accounting, and the measured recall@k loss of partial answers vs
# the full-coverage oracle on a real model, per outage size.
# EXPERIMENT=tenant replays tenant A's 5× flash crowd against tenant B's
# steady SLO-bound traffic through the WDRR multi-tenant scheduler vs a
# shared queue: B's served p99 stays at its quiet baseline behind WDRR
# while the shared queue blows through the SLO, and a saturation arm shows
# served shares tracking the 3:1 weights within ±10%. Deterministic.
# EXPERIMENT=deploy drives three model-release rollouts through the
# SLO-guarded canary controller under live load: a good release promotes
# fleet-wide via hot swap (zero dropped requests), a latency-regressing
# release is caught on the canary slice and auto-rolled-back (blast radius
# = canary-served fraction), and a bit-flipped release fails checksum
# verification on every pod and is quarantined without serving a byte.
# EXPERIMENT=procs re-runs the supervised-crash and rolling-update studies
# against real etude-server processes (SIGKILL chaos, SIGTERM drains) and
# compares measured MTTR against the in-process substrate, plus a
# cold-start distribution from repeated real spawns.
# PODS=proc runs the cluster-backed experiments (rolling, deploy) on real
# processes instead of in-process pods.
benchmark: bin/etude-server
	ETUDE_SERVER_BIN=$(CURDIR)/bin/etude-server go run ./cmd/etude benchmark -experiment $(EXPERIMENT) -scale $(SCALE) -pods $(PODS)

# Run an experiment under the CPU profiler and open the hot-path report:
#   make profile EXPERIMENT=breakdown
profile:
	go run ./cmd/etude benchmark -experiment $(EXPERIMENT) -scale $(SCALE) -cpuprofile cpu.out
	go tool pprof -top -nodecount 15 cpu.out

# Automatic instance-type choice for a declarative workload.
advise:
	go run ./cmd/etude advise -model $(MODEL) -catalog $(CATALOG) -rate $(RATE)

clean:
	rm -rf $(BUCKET) bin
