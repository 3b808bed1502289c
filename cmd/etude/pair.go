package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"syscall"
	"time"

	"etude/internal/bench"
	"etude/internal/leakcheck"
)

// pairRecord is one line of .bench_build/pairs-<workload>.jsonl: one run of
// perf/run.sh and the contract line it ended with.
type pairRecord struct {
	Pair  int    `json:"pair"`
	Side  string `json:"side"` // "base" or "change"
	Rev   string `json:"rev"`
	Seed  int64  `json:"seed"`
	First bool   `json:"first"` // whether this side ran first in its pair
	Line  struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"line"`
}

// benchPair measures the working tree against a base revision the way
// choosing-metrics §8 asks: pairs of perf/run.sh runs on the same workload
// and seed, alternating which side goes first, every run in the foreground.
// Each contract line is appended to .bench_build/pairs-<workload>.jsonl, so
// ten pairs can be collected over several invocations (-n is per
// invocation); the table printed at the end covers every pair in that file.
func benchPair(args []string) {
	fs := flag.NewFlagSet("bench pair", flag.ExitOnError)
	base := fs.String("base", "HEAD", "revision to compare the working tree against")
	workload := fs.String("workload", "scan_1m", "workload of BENCHMARK.json")
	n := fs.Int("n", 3, "pairs to run in this invocation (0 only prints the table)")
	seed := fs.Int64("seed", 0, "seed of the first pair; later pairs count up (0 = continue after the pairs already recorded, from 101)")
	_ = fs.Parse(args)

	var spec struct {
		RunSeconds int                `json:"run_seconds"`
		EndToEnd   []bench.PairMetric `json:"end_to_end"`
	}
	raw, err := os.ReadFile("BENCHMARK.json")
	if err == nil {
		err = json.Unmarshal(raw, &spec)
	}
	if err != nil {
		log.Fatalf("etude bench pair: BENCHMARK.json (run from the repository root): %v", err)
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		log.Fatalf("etude bench pair: %v", err)
	}
	logPath := filepath.Join(".bench_build", "pairs-"+*workload+".jsonl")
	records, err := readPairLog(logPath)
	if err != nil {
		log.Fatalf("etude bench pair: %v", err)
	}
	done := 0
	for _, r := range records {
		done = max(done, r.Pair+1)
		if r.Side == "base" && r.Rev != *base {
			if *n > 0 {
				log.Fatalf("etude bench pair: %s holds pairs against %s; remove it to measure against %s", logPath, r.Rev, *base)
			}
			*base = r.Rev // printing only: name what was measured
		}
	}
	if *seed == 0 {
		*seed = int64(101 + done)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ran, err := runPairs(ctx, *base, *workload, logPath, done, *n, *seed, spec.RunSeconds)
	records = append(records, ran...)
	pairs, failed := pairUp(records)
	fmt.Printf("%s: %d pairs, base %s against the working tree, %d failed or unverified requests\n", *workload, len(pairs), *base, failed)
	bench.WritePairTable(os.Stdout, *workload, bench.ReducePairs(spec.EndToEnd, pairs))
	if len(pairs) < 10 {
		fmt.Println("fewer than ten pairs: too few to show a gain")
	}
	if err != nil {
		stop()
		log.Fatalf("etude bench pair: %v", err)
	}
}

// runPairs runs n pairs numbered from first, appending every run to the log
// as it completes, and removes the export of base before it returns.
func runPairs(ctx context.Context, base, workload, logPath string, first, n int, seed int64, seconds int) ([]pairRecord, error) {
	if n <= 0 {
		return nil, nil
	}
	export, err := exportRevision(ctx, base)
	if export != "" {
		defer os.RemoveAll(export)
	}
	if err != nil {
		return nil, err
	}
	trees := map[string]string{"base": export, "change": "."}
	revs := map[string]string{"base": base, "change": "worktree"}
	var ran []pairRecord
	for i := 0; i < n; i++ {
		pair, order := first+i, []string{"base", "change"}
		if pair%2 == 1 {
			order = []string{"change", "base"}
		}
		for j, side := range order {
			rec := pairRecord{Pair: pair, Side: side, Rev: revs[side], Seed: seed + int64(i), First: j == 0}
			line, err := runPerf(ctx, trees[side], workload, rec.Seed, seconds)
			if err == nil {
				err = json.Unmarshal(line, &rec.Line)
			}
			if err == nil {
				err = appendPairLog(logPath, rec)
			}
			if err != nil {
				return ran, fmt.Errorf("pair %d %s: %w", pair, side, err)
			}
			fmt.Fprintf(os.Stderr, "pair %d %-6s seed %d: attempted %d failed %d\n", pair, side, rec.Seed, rec.Line.Attempted, rec.Line.Failed)
			ran = append(ran, rec)
		}
	}
	return ran, nil
}

// exportRevision unpacks rev into a fresh directory under .bench_build/.
// The directory is returned even on error, for the caller to remove.
func exportRevision(ctx context.Context, rev string) (string, error) {
	dir, err := os.MkdirTemp(".bench_build", "base-")
	if err != nil {
		return "", err
	}
	archive := exec.CommandContext(ctx, "git", "archive", "--format=tar", rev)
	untar := exec.CommandContext(ctx, "tar", "-x", "-C", dir)
	var stderr bytes.Buffer
	archive.Stderr, untar.Stderr = &stderr, &stderr
	if untar.Stdin, err = archive.StdoutPipe(); err != nil {
		return dir, err
	}
	if err = untar.Start(); err != nil {
		return dir, err
	}
	err = archive.Run()
	if werr := untar.Wait(); err == nil {
		err = werr
	}
	if err != nil {
		return dir, fmt.Errorf("exporting %s: %v: %s", rev, err, bytes.TrimSpace(stderr.Bytes()))
	}
	return dir, nil
}

// runPerf runs the benchmark command of the tree at dir in the foreground,
// in a session of its own so that cancelling kills the build and the run
// alike, and returns the contract line: the last line of its output. A
// process still alive in that session once the command has been waited for
// is killed, and the run fails naming it: a pair must leave nothing behind.
func runPerf(ctx context.Context, dir, workload string, seed int64, seconds int) ([]byte, error) {
	cmd := exec.CommandContext(ctx, "bash", "perf/run.sh", "--workload", workload,
		"--seed", strconv.FormatInt(seed, 10), "--seconds", strconv.Itoa(seconds), "--trace", "0")
	cmd.Dir = dir
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setsid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 5 * time.Second
	out, err := cmd.Output()
	if cmd.Process != nil {
		if survivors := leakcheck.SessionSurvivors(cmd.Process.Pid); len(survivors) > 0 {
			for _, pid := range survivors {
				_ = syscall.Kill(pid, syscall.SIGKILL)
			}
			return nil, fmt.Errorf("perf/run.sh in %s left processes running: pids %v (killed)", dir, survivors)
		}
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	last := lines[len(lines)-1]
	if err != nil && !bytes.HasPrefix(last, []byte("{")) {
		return nil, fmt.Errorf("perf/run.sh in %s: %w", dir, err)
	}
	// A run with failed requests exits 1 after its contract line; the line
	// is kept and the failures are counted.
	return last, nil
}

func readPairLog(path string) ([]pairRecord, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var records []pairRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var r pairRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		records = append(records, r)
	}
	return records, sc.Err()
}

func appendPairLog(path string, r pairRecord) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err = f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// pairUp joins the records of complete pairs, in pair order, and counts the
// requests that failed or were answered wrongly on either side.
func pairUp(records []pairRecord) (pairs []bench.Pair, failed int) {
	byPair := map[int]*bench.Pair{}
	last := -1
	for _, r := range records {
		if !r.Line.Correct || r.Line.Failed > 0 {
			failed += max(r.Line.Failed, 1)
		}
		values := map[string]float64{}
		for name, m := range r.Line.Metrics {
			values[name] = m.Value
		}
		p := byPair[r.Pair]
		if p == nil {
			p = &bench.Pair{}
			byPair[r.Pair] = p
		}
		if r.Side == "base" {
			p.Base = values
		} else {
			p.Change = values
		}
		last = max(last, r.Pair)
	}
	for i := 0; i <= last; i++ {
		if p := byPair[i]; p != nil && p.Base != nil && p.Change != nil {
			pairs = append(pairs, *p)
		}
	}
	return pairs, failed
}
