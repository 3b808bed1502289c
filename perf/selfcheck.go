package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// issueTarget is the bound ISSUE 13 asked of the time-based metrics. This
// host's noise does not fit inside it (see README.md), so their bounds are
// wider, and a pair that passes its bound but not the target is marked.
const issueTarget = 0.10

// runSelfcheck measures the benchmark against itself the way the driver
// does: every workload is run n times for set A and n times for set B,
// interleaved A B A B, each run a fresh process; run i of either set uses
// seed+i, so both sets measure the same inputs. A pair (metric, workload)
// passes when both sets' interquartile spread and the amount by which B's
// median is worse than A's stay within the metric's bound. The driver does
// not judge the spread of setup_s, so it is printed and marked, not failed.
func runSelfcheck(defs []workloadDef, n int, seed int64, seconds float64) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perf: %v\n", err)
		return 1
	}
	bad := 0
	for _, def := range defs {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			s := seed + int64(i/2)
			line, err := childRun(exe, def.Name, s, seconds)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perf: selfcheck %s seed %d: %v\n", def.Name, s, err)
				return 1
			}
			for name, v := range line.Metrics {
				sets[i%2][name] = append(sets[i%2][name], v.Value)
			}
			fmt.Fprintf(os.Stderr, "selfcheck: %s run %d/%d done\n", def.Name, i+1, 2*n)
		}
		fmt.Printf("%-34s %12s %12s %8s %8s %8s %6s\n", "pair", "median A", "median B", "B worse", "IQR A", "IQR B", "bound")
		for _, d := range endToEnd {
			a, b := sets[0][d.Name], sets[1][d.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if d.Better == "higher" {
				worse = -worse
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			switch {
			case worse > d.Bound, d.Name != "setup_s" && (sa > d.Bound || sb > d.Bound):
				verdict = "FAIL"
				bad++
			case sa > d.Bound || sb > d.Bound:
				verdict = "spread over the bound (not judged for setup_s)"
			case d.Bound > issueTarget && (worse > issueTarget || sa > issueTarget || sb > issueTarget):
				verdict = "ok; unresolved at 0.10"
			case worse > d.Bound/2 || sa > d.Bound/2 || sb > d.Bound/2:
				verdict = "over half the bound"
			}
			fmt.Printf("%-34s %12.6g %12.6g %+8.4f %8.4f %8.4f %6.2f  %s\n",
				def.Name+"/"+d.Name, ma, mb, worse, sa, sb, d.Bound, verdict)
		}
	}
	if bad > 0 {
		fmt.Printf("selfcheck: %d pair(s) outside their bound\n", bad)
		return 1
	}
	fmt.Println("selfcheck: every pair within its bound")
	return 0
}

// childRun runs one workload in a fresh process and parses the contract
// line, the last line of its output.
func childRun(exe, workload string, seed int64, seconds float64) (contractLine, error) {
	var line contractLine
	cmd := exec.Command(exe, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-json")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return line, err
	}
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil {
		return line, fmt.Errorf("parsing result line: %w", err)
	}
	if !line.Correct {
		return line, fmt.Errorf("%d of %d requests failed", line.Failed, line.Attempted)
	}
	return line, nil
}
