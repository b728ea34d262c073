package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"softcache/internal/bench"
	"softcache/internal/harness"
	"softcache/internal/workloads"
)

const (
	// figuresSecondsPerRound sizes the run's fixed work from -seconds:
	// one full regeneration takes ~16 s on the reference machine with two
	// workers, so -seconds 25 makes two rounds.
	figuresSecondsPerRound = 12.5
	// paperChecks is the number of paper-derived shape checks the figure
	// job carries; a round must run at least this many, all passing.
	paperChecks = 64
	// figureSetups is how many test-scale passes set-up makes; setup_s
	// is their median.
	figureSetups = 5
)

// figureRound is one regeneration of the figures.
type figureRound struct {
	Wall    time.Duration            `json:"wall_ns"`
	Elapsed map[string]time.Duration `json:"elapsed_ns"` // per figure id
	Units   int                      `json:"units"`
	Failed  int                      `json:"failed"` // failed, panicked, timed out or failed a check
	Checks  int                      `json:"checks"`
}

// regenerate runs the figures once against bctx on the experiment
// harness with one worker per CPU, as `make figures` does.
func regenerate(ctx context.Context, bctx *bench.Context, ids []string, corrupt bool) (*figureRound, error) {
	units := make([]harness.Unit[*bench.Report], len(ids))
	for i, id := range ids {
		e, err := bench.Get(id)
		if err != nil {
			return nil, err
		}
		units[i] = harness.Unit[*bench.Report]{
			Key: "fig:" + id,
			Run: func(runCtx context.Context) (*bench.Report, error) { return e.Run(bctx.WithContext(runCtx)) },
		}
	}
	t0 := time.Now()
	results, err := harness.Run(ctx, units, harness.Options{Workers: workers()})
	if err != nil {
		return nil, err
	}
	fr := &figureRound{Wall: time.Since(t0), Elapsed: map[string]time.Duration{}, Units: len(units)}
	for i, r := range results {
		fr.Elapsed[ids[i]] = r.Elapsed
		if !r.OK() {
			fr.Failed++
			continue
		}
		if corrupt && i == 0 && len(r.Value.Checks) > 0 {
			r.Value.Checks[0].Pass = false
		}
		fr.Checks += len(r.Value.Checks)
		if !r.Value.Passed() {
			fr.Failed++
		}
	}
	return fr, nil
}

// figureIDs is the figure set a run regenerates: every figure unless the
// options name a subset.
func (o *options) figureIDs() []string {
	if o.figures != nil {
		return o.figures
	}
	return bench.IDs()
}

// roundCommand is the hidden subcommand that runs one regeneration in a
// fresh process and prints its figureRound as JSON.
const roundCommand = "figures-round"

// runFigureRound is the child side of a figure round.
func runFigureRound(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet(roundCommand, flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "trace seed")
	scale := fs.String("scale", "paper", "paper or test")
	figs := fs.String("figs", "", "comma-separated figure ids (default every figure)")
	corrupt := fs.Bool("corrupt", false, "fail the first figure's first shape check")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sc := workloads.ScalePaper
	if *scale == "test" {
		sc = workloads.ScaleTest
	}
	ids := bench.IDs()
	if *figs != "" {
		ids = strings.Split(*figs, ",")
	}
	fr, err := regenerate(context.Background(), bench.NewContext(sc, *seed), ids, *corrupt)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	if err := json.NewEncoder(stdout).Encode(fr); err != nil {
		return 1
	}
	return 0
}

// childRound is one figure round as the parent saw it.
type childRound struct {
	figureRound
	wall  time.Duration // process start to exit
	cpu   time.Duration // the child's utime + stime
	rssMB float64       // the child's peak resident set
}

// spawnRound runs one regeneration in a fresh process of this binary, as
// a new `make figures` process would.
func spawnRound(ctx context.Context, o *options, scale workloads.Scale, corrupt bool) (*childRound, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{roundCommand, "-seed", fmt.Sprint(o.seed), "-scale", scale.String()}
	if o.figures != nil {
		args = append(args, "-figs", strings.Join(o.figures, ","))
	}
	if corrupt {
		args = append(args, "-corrupt")
	}
	cmd := exec.CommandContext(ctx, self, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, o.log
	t0 := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("figure round: %v", err)
	}
	cr := &childRound{wall: time.Since(t0)}
	if err := json.Unmarshal(out.Bytes(), &cr.figureRound); err != nil {
		return nil, fmt.Errorf("figure round output: %v", err)
	}
	ru := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	cr.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	cr.rssMB = float64(ru.Maxrss) / 1024 // kB on Linux
	return cr, nil
}

// runFigures is the batch user's job: regenerate every figure at paper
// scale, each round in a fresh process on a fresh bench.Context, so it
// pays its own trace generation as a new `make figures` process does. An
// operation is one figure (attempted and failed count figures); the
// latency the batch user waits for is a whole regeneration, so the
// latency percentiles are taken over rounds. The figure job has no
// set-up of its own apart from its process start, so setup_s stands in
// with a test-scale pass over every figure in a fresh process (its shape
// checks are not asserted: they are calibrated at paper scale): the same
// code paths at a small size, made figureSetups times.
func runFigures(ctx context.Context, o *options) (*result, error) {
	var setups []float64
	for i := 0; i < figureSetups; i++ {
		cr, err := spawnRound(ctx, o, workloads.ScaleTest, false)
		if err != nil {
			return nil, err
		}
		setups = append(setups, cr.wall.Seconds())
	}
	if o.traced {
		return figureLayers(ctx, o)
	}

	rounds := o.rounds
	if rounds == 0 {
		rounds = max(1, int(math.Round(float64(o.seconds)/figuresSecondsPerRound)))
	}
	res := &result{Correct: true, Metrics: map[string]metric{}}
	var lat []float64
	var wall, cpu time.Duration
	rss := 0.0
	steal0, total0 := machineCPU()
	for r := 0; r < rounds; r++ {
		cr, err := spawnRound(ctx, o, o.scale, o.corrupt == r)
		if err != nil {
			return nil, err
		}
		wall += cr.wall
		cpu += cr.cpu
		rss = max(rss, cr.rssMB)
		lat = append(lat, ms(cr.wall))
		res.Attempted += cr.Units
		res.Failed += cr.Failed
		if cr.Failed > 0 || (o.scale == workloads.ScalePaper && cr.Checks < paperChecks) {
			o.logf("FAIL round %d: %d of %d figures failed; %d shape checks (want >= %d)", r, cr.Failed, cr.Units, cr.Checks, paperChecks)
			res.Correct = false
		}
		o.logf("round %d: %d figures, %d shape checks, %.3f s wall, %.3f s CPU, %.0f MB peak RSS",
			r, cr.Units, cr.Checks, cr.wall.Seconds(), cr.cpu.Seconds(), cr.rssMB)
	}
	if steal1, total1 := machineCPU(); total1 > total0 {
		o.logf("machine steal time during the measured rounds: %.1f%% of CPU time", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	o.logf("figures_wall_s %.3f  figures_cpu_s %.3f per round", wall.Seconds()/float64(rounds), cpu.Seconds()/float64(rounds))
	res.Metrics["throughput_rps"] = metric{float64(res.Attempted-res.Failed) / wall.Seconds(), "1/s"}
	res.Metrics["latency_p50_ms"] = metric{percentile(lat, 50), "ms"}
	res.Metrics["latency_p90_ms"] = metric{percentile(lat, 90), "ms"}
	res.Metrics["cpu_ms_per_req"] = metric{ms(cpu) / float64(res.Attempted), "ms"}
	res.Metrics["peak_rss_mb"] = metric{rss, "MB"}
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	return res, nil
}
