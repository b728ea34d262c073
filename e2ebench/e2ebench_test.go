package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"

	"softcache/internal/workloads"
)

// served is the softcache-served binary TestMain builds from the
// checkout's sources.
var served string

func TestMain(m *testing.M) {
	// paper-figures runs each round in a fresh process of the running
	// binary, which under `go test` is the test binary.
	if len(os.Args) > 1 && os.Args[1] == roundCommand {
		os.Exit(runFigureRound(os.Args[2:], os.Stdout, os.Stderr))
	}
	dir, err := os.MkdirTemp("", "e2ebench-test-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	served = filepath.Join(dir, "softcache-served")
	build := exec.Command("go", "build", "-o", served, "softcache/cmd/softcache-served")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		fmt.Fprintln(os.Stderr, "building softcache-served:", err)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// tinyFigures are figures whose shape checks hold at test scale.
var tinyFigures = []string{"1a", "4a", "6a", "7a", "summary"}

// tiny returns options for a test-scale run of one workload. A
// hot-repeat round at test scale takes a few milliseconds, less than the
// 10 ms tick of /proc CPU times, so it runs five.
func tiny(t *testing.T, workload string, traced bool) *options {
	rounds := 1
	if workload == "hot-repeat" {
		rounds = 5
	}
	return &options{
		workload: workload, seed: 7, seconds: 1, traced: traced,
		root: t.TempDir(), served: served, scale: workloads.ScaleTest,
		rounds: rounds, figures: tinyFigures, corrupt: -1, log: &testLog{t: t},
	}
}

type testLog struct{ t *testing.T }

func (l *testLog) Write(p []byte) (int, error) {
	l.t.Log(string(bytes.TrimRight(p, "\n")))
	return len(p), nil
}

func run(t *testing.T, o *options) *result {
	t.Helper()
	res, err := workloadFuncs[o.workload](context.Background(), o)
	if err != nil {
		t.Fatalf("%s: %v", o.workload, err)
	}
	return res
}

var endToEnd = []string{"throughput_rps", "latency_p50_ms", "latency_p90_ms", "cpu_ms_per_req", "peak_rss_mb", "setup_s"}

// TestWorkloadsTiny runs every workload at test scale and requires a
// clean, fully checked run that reports every end-to-end metric.
func TestWorkloadsTiny(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			res := run(t, tiny(t, w, false))
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			for _, m := range endToEnd {
				if v, ok := res.Metrics[m]; !ok || !(v.Value > 0) {
					t.Errorf("metric %s = %+v, want a positive value", m, v)
				}
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("%d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
		})
	}
}

// TestTracedTiny runs every workload traced and requires the whole
// per-layer set; on the serve workloads the replay must reproduce the
// served bytes (a mismatch clears Correct), every class must report its
// client latency, and no layer replay may overlap a request.
func TestTracedTiny(t *testing.T) {
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			o := tiny(t, w, true)
			res := run(t, o)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d", res.Correct, res.Failed)
			}
			for _, n := range layerNames() {
				if _, ok := res.Metrics[n.name]; !ok {
					t.Errorf("missing per-layer metric %s", n.name)
				}
			}
			spans, _ := filepath.Glob(filepath.Join(o.root, ".bench_build", "e2ebench", "spans", "*.json"))
			if len(spans) != 1 {
				t.Errorf("span files: %v", spans)
			}
			if w == "paper-figures" {
				return
			}
			for _, c := range classes {
				if res.Metrics["client_ms."+c].Value <= 0 {
					t.Errorf("client_ms.%s not measured", c)
				}
			}
			// Every request of a traced run ran as in an untraced one:
			// no layer replay overlaps any request.
			raw, err := os.ReadFile(spans[0])
			if err != nil {
				t.Fatal(err)
			}
			var all, reqs []span
			if err := json.Unmarshal(raw, &all); err != nil {
				t.Fatal(err)
			}
			for _, sp := range all {
				if sp.Parent == 0 {
					reqs = append(reqs, sp)
				}
			}
			for _, sp := range all {
				if sp.Parent == 0 {
					continue
				}
				for _, rq := range reqs {
					if sp.Start < rq.End && rq.Start < sp.End {
						t.Fatalf("replay %s of request %d overlaps request %d", sp.Name, sp.Req, rq.Req)
					}
				}
			}
		})
	}
}

// TestChecksCatchCorruption flips one digit of one measured answer (or
// one shape check of the figure job) and requires the run to report it.
func TestChecksCatchCorruption(t *testing.T) {
	for _, tc := range []struct {
		workload string
		corrupt  int
	}{
		{"cold-serve", 3},  // a fresh answer: conservation and trace checks
		{"hot-repeat", 11}, // usually a hit: byte identity with its miss
		{"paper-figures", 0},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			o := tiny(t, tc.workload, false)
			o.corrupt = tc.corrupt
			res := run(t, o)
			if res.Correct || res.Failed != 1 {
				t.Fatalf("corrupted answer not caught: correct=%v failed=%d", res.Correct, res.Failed)
			}
		})
	}
}

// TestBenchmarkFileNamesEveryMetric requires BENCHMARK.json to list
// exactly the metrics the runs print, in the same units.
func TestBenchmarkFileNamesEveryMetric(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var e2e []string
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, m.Name)
	}
	if fmt.Sprint(e2e) != fmt.Sprint(endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %v, the runs print %v", e2e, endToEnd)
	}
	names := layerNames()
	if len(bf.PerLayer) != len(names) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, the traced runs print %d", len(bf.PerLayer), len(names))
	}
	for i, m := range bf.PerLayer {
		if m.Name != names[i].name || m.Unit != names[i].unit {
			t.Errorf("per_layer[%d] = %s %s, the traced runs print %s %s", i, m.Name, m.Unit, names[i].name, names[i].unit)
		}
	}
}

// TestReconcileCatchesGap requires the reconciliation to fail when the
// replayed layers explain too little or too much of a client latency.
func TestReconcileCatchesGap(t *testing.T) {
	for _, tc := range []struct {
		explained float64
		ok        bool
	}{{95, true}, {105, true}, {89, false}, {111, false}} {
		if err := reconcile(100, tc.explained, 0.10); (err == nil) != tc.ok {
			t.Errorf("reconcile(100, %v, 0.10) = %v, want ok=%v", tc.explained, err, tc.ok)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	q1, q3 := quartiles(xs)
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles of 3 = %v, %v; want 1, 4", q1, q3)
	}
}

// TestSchedulesAreSeeded requires the same seed to give the same inputs
// and another seed other trace seeds, with the same make-up.
func TestSchedulesAreSeeded(t *testing.T) {
	for _, build := range []func(*options) (*servePlan, error){coldPlan, hotPlan} {
		plan := func(seed uint64) *servePlan {
			o := tiny(t, "", false)
			o.seed = seed
			p, err := build(o)
			if err != nil {
				t.Fatal(err)
			}
			return p
		}
		a, b, c := plan(1), plan(1), plan(2)
		if len(a.ops) != len(c.ops) || len(a.pool) != len(c.pool) {
			t.Fatalf("seeds change the schedule's size")
		}
		same := func(x, y *servePlan) bool {
			for i := range x.ops {
				if !bytes.Equal(x.ops[i].body, y.ops[i].body) || x.ops[i].path != y.ops[i].path {
					return false
				}
			}
			return true
		}
		if !same(a, b) {
			t.Errorf("one seed gave two schedules")
		}
		if same(a, c) {
			t.Errorf("two seeds gave one schedule")
		}
	}
}
