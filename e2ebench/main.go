// Command e2ebench is softcache's end-to-end benchmark. It runs one named
// workload against the program from outside and prints, as the last line
// of its standard output, one JSON object:
//
//	{"correct": true, "attempted": 240, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//	paper-figures  every figure of the paper at paper scale, through
//	               internal/bench and the experiment harness
//	cold-serve     1 client through a router and two shards; every request
//	               names a trace neither cache has seen
//	hot-repeat     2 clients through the same fleet; requests repeat a pool
//	               answered during set-up, plus ~1 in 8 warm misses
//
// With -trace 0 the metrics are the end-to-end set (untraced); with
// -trace 1 the run records spans, replays every request's layer calls and
// prints the per-layer set. "steady" as the first argument runs one
// workload k times and prints each metric's spread against its bound;
// "figures-round" is the child process of one paper-figures round.
// See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"softcache/internal/workloads"
)

// runDeadline bounds one run, set-up and checks included; a run that
// cannot finish in time fails instead of hanging its caller.
const runDeadline = 170 * time.Second

// options is one run's configuration.
type options struct {
	workload string
	seed     uint64
	seconds  int
	traced   bool
	root     string // checkout root: scratch files live under .bench_build
	served   string // softcache-served binary
	scale    workloads.Scale
	// rounds overrides the work sized from seconds (0 = sized).
	rounds int
	// figures narrows paper-figures to a subset of bench.IDs() (nil = all).
	figures []string
	// corrupt, when >= 0, flips one byte of that measured response
	// before the checks run; the package's own test uses it to show the
	// checks catch a wrong answer.
	corrupt int
	log     io.Writer
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadFunc runs one workload. An error means the run could not be
// carried out (a daemon would not start, the deadline passed); wrong
// answers are reported through result.Correct and result.Failed instead.
type workloadFunc func(ctx context.Context, o *options) (*result, error)

var workloadFuncs = map[string]workloadFunc{
	"paper-figures": runFigures,
	"cold-serve":    runCold,
	"hot-repeat":    runHot,
}

func workloadNames() []string {
	names := make([]string, 0, len(workloadFuncs))
	for n := range workloadFuncs {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "steady":
			os.Exit(runSteady(os.Args[2:], os.Stdout, os.Stderr))
		case roundCommand:
			os.Exit(runFigureRound(os.Args[2:], os.Stdout, os.Stderr))
		}
	}
	os.Exit(runMain(os.Args[1:], os.Stdout, os.Stderr))
}

func runMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := &options{log: stderr, scale: workloads.ScalePaper, corrupt: -1}
	fs.StringVar(&o.workload, "workload", "", fmt.Sprintf("workload to run: %v", workloadNames()))
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 25, "run length on the reference machine; sizes the fixed work of the run")
	trace := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "checkout root")
	fs.StringVar(&o.served, "served", "", "softcache-served binary (serve workloads)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloadFuncs[o.workload]
	if !ok {
		fmt.Fprintf(stderr, "e2ebench: unknown workload %q (want one of %v)\n", o.workload, workloadNames())
		return 2
	}
	if o.seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "e2ebench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	o.traced = *trace == 1

	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	ctx, stop := signal.NotifyContext(ctx, os.Interrupt, syscall.SIGTERM)
	defer stop()

	res, err := run(ctx, o)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %s: %v\n", o.workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// scratchDir returns a fresh directory for this run's daemons and span
// files under the checkout's build directory.
func (o *options) scratchDir(name string) (string, error) {
	base := filepath.Join(o.root, ".bench_build", "e2ebench")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-")
}

// workers is the client-connection and harness-worker ceiling: the
// machine's CPU count.
func workers() int { return runtime.NumCPU() }

// logf writes one line of the human-readable report to stderr.
func (o *options) logf(format string, args ...any) {
	fmt.Fprintf(o.log, format+"\n", args...)
}
