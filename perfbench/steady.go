package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness check reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// steadiness runs two sets of n end-to-end runs of every workload in
// BENCHMARK.json (only cfg.workload's when it is set), each run with its
// own seed, and prints per metric and workload the median, quartiles
// and spread ((Q3−Q1)/median) of each set against the metric's bound. It fails when any spread, setup_s's
// included, exceeds its bound or the second set's median is worse than
// the first's by more than the bound.
func steadiness(n int, cfg config) int {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: run from the repository root:", err)
		return 1
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: BENCHMARK.json:", err)
		return 1
	}
	for _, m := range bf.EndToEnd {
		if !validName(m.Name) {
			fmt.Fprintf(os.Stderr, "perfbench: invalid metric name %q\n", m.Name)
			return 1
		}
	}
	known := cfg.workload == ""
	for _, w := range bf.Workloads {
		known = known || w.Name == cfg.workload
	}
	if !known {
		fmt.Fprintf(os.Stderr, "perfbench: workload %q is not in BENCHMARK.json\n", cfg.workload)
		return 1
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	ok := true
	fmt.Printf("%-14s %-15s %4s %12s %12s %12s %8s %7s  %s\n", "workload", "metric", "set", "median", "q1", "q3", "spread", "bound", "verdict")
	for _, w := range bf.Workloads {
		if cfg.workload != "" && w.Name != cfg.workload {
			continue
		}
		var sets [2]map[string][]float64
		for s := range sets {
			sets[s] = map[string][]float64{}
			for r := 0; r < n; r++ {
				seed := int64(1000*(s+1) + r)
				cmd := exec.Command(self, "-workdir", cfg.workdir, "-open-rps", strconv.FormatFloat(cfg.openRPS, 'g', -1, 64),
					"-workload", w.Name, "-seed", strconv.FormatInt(seed, 10),
					"-seconds", strconv.Itoa(bf.RunSeconds), "-trace", "0")
				cmd.Stderr = os.Stderr
				out, err := cmd.Output()
				rep, perr := lastReport(out)
				if err != nil || perr != nil || !rep.Correct {
					fmt.Fprintf(os.Stderr, "perfbench: %s seed %d failed: %v %v\n", w.Name, seed, err, perr)
					return 1
				}
				line := fmt.Sprintf("run %s set %d seed %d:", w.Name, s+1, seed)
				for _, m := range bf.EndToEnd {
					v := rep.Metrics[m.Name].Value
					sets[s][m.Name] = append(sets[s][m.Name], v)
					line += fmt.Sprintf(" %s=%.4g", m.Name, v)
				}
				fmt.Fprintln(os.Stderr, line)
			}
		}
		for _, m := range bf.EndToEnd {
			var meds [2]float64
			for s := range sets {
				q1, med, q3 := quartiles(sets[s][m.Name])
				meds[s] = med
				spread := (q3 - q1) / med
				verdict := "ok"
				switch {
				case spread > m.Bound:
					verdict, ok = "SPREAD>BOUND", false
				case spread > m.Bound/3:
					verdict = "spread>bound/3"
				}
				fmt.Printf("%-14s %-15s %4d %12.4f %12.4f %12.4f %8.4f %7.3f  %s\n", w.Name, m.Name, s+1, med, q1, q3, spread, m.Bound, verdict)
			}
			worse := (meds[1] - meds[0]) / meds[0]
			if m.Better == "higher" {
				worse = -worse
			}
			if worse > m.Bound {
				fmt.Printf("%-14s %-15s set 2 median worse than set 1 by %.1f%% > bound %.1f%%\n", w.Name, m.Name, 100*worse, 100*m.Bound)
				ok = false
			}
		}
	}
	if !ok {
		fmt.Println("steadiness: FAIL")
		return 1
	}
	fmt.Println("steadiness: ok")
	return 0
}

// lastReport parses the JSON result on the last line of a run's output.
func lastReport(out []byte) (*report, error) {
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var rep report
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
		return nil, fmt.Errorf("no result line: %w", err)
	}
	return &rep, nil
}
