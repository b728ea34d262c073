package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
)

// benchmarkFile is the part of BENCHMARK.json the steadiness command
// reads.
type benchmarkFile struct {
	RunSeconds int `json:"run_seconds"`
	EndToEnd   []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSteady runs one workload k times on this checkout with seeds 1..k,
// each run run_seconds long, and prints each end-to-end metric's median, quartiles and
// spread ((q3-q1)/median) against its bound in BENCHMARK.json, plus the
// failed share of every run.
func runSteady(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench steady", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run")
	runs := fs.Int("runs", 10, "number of runs")
	root := fs.String("root", ".", "checkout root")
	served := fs.String("served", "", "softcache-served binary")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	raw, err := os.ReadFile(filepath.Join(*root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintf(stderr, "steady: %v\n", err)
		return 2
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintf(stderr, "steady: BENCHMARK.json: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "steady: %v\n", err)
		return 2
	}

	values := map[string][]float64{}
	var shares []string
	for i := 0; i < *runs; i++ {
		seed := i + 1
		cmd := exec.Command(self, "-workload", *workload, "-seed", fmt.Sprint(seed),
			"-seconds", fmt.Sprint(bf.RunSeconds), "-trace", "0", "-root", *root, "-served", *served)
		var out bytes.Buffer
		cmd.Stdout, cmd.Stderr = &out, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "steady: run %d (seed %d): %v\n", i, seed, err)
			return 1
		}
		lines := strings.Split(strings.TrimSpace(out.String()), "\n")
		var res result
		if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
			fmt.Fprintf(stderr, "steady: run %d: %v\n", i, err)
			return 1
		}
		if !res.Correct {
			fmt.Fprintf(stderr, "steady: run %d (seed %d) reported incorrect output\n", i, seed)
			return 1
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
		}
		shares = append(shares, fmt.Sprintf("%d/%d", res.Failed, res.Attempted))
		fmt.Fprintf(stderr, "run %d seed %d: %s\n", i, seed, lines[len(lines)-1])
	}

	fmt.Fprintf(stdout, "workload %s: %d runs of %d s, seeds 1..%d\n", *workload, *runs, bf.RunSeconds, *runs)
	fmt.Fprintf(stdout, "failed/attempted per run: %s\n", strings.Join(shares, " "))
	fmt.Fprintf(stdout, "%-16s %-6s %12s %12s %12s %8s %6s  %s\n", "metric", "unit", "median", "q1", "q3", "spread", "bound", "verdict")
	names := make([]string, 0, len(values))
	for n := range values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var unit string
		bound := -1.0
		for _, m := range bf.EndToEnd {
			if m.Name == n {
				unit, bound = m.Unit, m.Bound
			}
		}
		vs := values[n]
		med := median(vs)
		q1, q3 := quartiles(vs)
		spread := (q3 - q1) / med
		verdict := "no bound"
		switch {
		case bound < 0:
		case spread <= bound/3:
			verdict = "steady (< bound/3)"
		case spread <= bound:
			verdict = "within bound"
		default:
			verdict = "WIDER THAN BOUND"
		}
		fmt.Fprintf(stdout, "%-16s %-6s %12.4f %12.4f %12.4f %8.4f %6.2f  %s\n", n, unit, med, q1, q3, spread, bound, verdict)
	}
	return 0
}
