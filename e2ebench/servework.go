package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"
)

// servePlan is one serve workload's inputs, built from the seed before
// any daemon starts.
type servePlan struct {
	clients int
	// pool is answered once, after set-up and before measuring:
	// hot-repeat's pool, whose repeats point at it through op.src, or
	// cold-serve's warm-up super-round.
	pool []*op
	// ops is the measured schedule, sent in order by the clients.
	ops []*op
	// cold requires the measured phase to see no trace-cache and no
	// result-cache hit; otherwise it must load no trace on a shard.
	cold bool
}

// serveRun is what a serve workload leaves for its report and replays.
type serveRun struct {
	o         *options
	plan      *servePlan
	f         *fleet
	replies   []reply
	failed    []bool
	wall      time.Duration
	before    *fleetMetrics
	after     *fleetMetrics
	cpu       time.Duration
	rssMB     float64
	setups    []float64
	correct   bool
	poolStart time.Time
}

// fleetLaunches is how many times a run sets the fleet up (three
// processes exec'd, each answering /healthz); setup_s is the median
// launch. One launch takes ~15 ms, so the median of many is what repeats
// from run to run.
const fleetLaunches = 11

// runServe sets the fleet up, answers the pool, runs the measured phase,
// checks every answer, and — on a traced run — replays each request's
// layer calls.
func runServe(ctx context.Context, o *options, plan *servePlan) (*result, error) {
	dir, err := o.scratchDir(o.workload)
	if err != nil {
		return nil, err
	}
	defer removeAll(o, dir)

	s := &serveRun{o: o, plan: plan, correct: true}
	ports, err := shardPorts()
	if err != nil {
		return nil, err
	}
	if ports[0] != shardPortBase {
		o.logf("FLAG shards on ports %v, not the base pair: the router's ring may place the pool on other shards than usual, which moves peak_rss_mb", ports)
	}
	for i := 0; i < fleetLaunches; i++ {
		t0 := time.Now()
		f, err := startFleet(ctx, o.served, filepath.Join(dir, fmt.Sprintf("fleet%d", i)), ports, o.log)
		if err != nil {
			return nil, err
		}
		s.setups = append(s.setups, time.Since(t0).Seconds())
		if i < fleetLaunches-1 {
			if err := f.stop(); err != nil {
				return nil, fmt.Errorf("set-up fleet %d: %v", i, err)
			}
			continue
		}
		s.f = f
	}
	stopped := false
	defer func() {
		if !stopped {
			s.f.stop()
		}
	}()

	s.poolStart = time.Now()
	client := newClient()
	for _, p := range plan.pool {
		r := send(ctx, client, s.f.router.url, p)
		if err := checkReply(p, &r); err != nil {
			o.logf("FAIL pool %s %s: %v", p.class, p.workload, err)
			s.correct = false
		}
		p.answer = r.body
	}
	client.CloseIdleConnections()
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	// A traced run replays each request's layer calls. With one client
	// each request is replayed as soon as it has ended, before the next
	// is sent, so a request and its replay meet the machine in the same
	// state and no replay overlaps a request; with more, the replays
	// follow the measured phase.
	var rp *replayer
	var after func(int, *reply)
	if o.traced {
		if rp, err = newReplayer(ctx, s, dir); err != nil {
			return nil, err
		}
		defer rp.rc.Close()
		if plan.clients == 1 {
			after = rp.replay
		}
	}

	if rss, err := s.f.peakRSSMB(); err == nil {
		o.logf("peak RSS after set-up and pool: %.1f MB", rss)
	}
	if s.before, err = s.f.scrapeAll(); err != nil {
		return nil, err
	}
	cpu0, err := s.f.cpuTicks()
	if err != nil {
		return nil, err
	}
	steal0, total0 := machineCPU()
	t0 := time.Now()
	s.replies = drive(ctx, s.f, plan.ops, plan.clients, after)
	s.wall = time.Since(t0)
	if steal1, total1 := machineCPU(); total1 > total0 {
		o.logf("machine steal time during the measured phase: %.1f%% of CPU time", 100*float64(steal1-steal0)/float64(total1-total0))
	}
	if ctx.Err() != nil {
		return nil, fmt.Errorf("measured phase cut short: %v", ctx.Err())
	}
	cpu1, err := s.f.cpuTicks()
	if err != nil {
		return nil, err
	}
	s.cpu = time.Duration(cpu1-cpu0) * clockTick
	if s.after, err = s.f.scrapeAll(); err != nil {
		return nil, err
	}
	if s.rssMB, err = s.f.peakRSSMB(); err != nil {
		return nil, err
	}

	checkStart := time.Now()
	s.check(ctx)
	o.logf("phases: fleet launches %v s, pool %.2f s, measured %.2f s, checks %.2f s",
		s.setups, t0.Sub(s.poolStart).Seconds(), s.wall.Seconds(), time.Since(checkStart).Seconds())
	var layers map[string]metric
	if o.traced {
		if after == nil {
			for i := range plan.ops {
				rp.replay(i, &s.replies[i])
			}
		}
		if layers, err = rp.finish(); err != nil {
			return nil, err
		}
	}
	stopped = true
	if err := s.f.stop(); err != nil {
		o.logf("FAIL fleet shutdown: %v", err)
		s.correct = false
	}
	return s.report(layers), nil
}

// check runs every per-answer check, the run-level accounting checks and
// the seeded sample checks.
func (s *serveRun) check(ctx context.Context) {
	o, ops := s.o, s.plan.ops
	s.failed = make([]bool, len(ops))
	if o.corrupt >= 0 && o.corrupt < len(s.replies) {
		corruptReply(&s.replies[o.corrupt])
	}
	fail := func(i int, err error) {
		if !s.failed[i] {
			o.logf("FAIL %s #%d %s: %v", ops[i].class, i, ops[i].workload, err)
		}
		s.failed[i] = true
	}
	for i := range ops {
		if err := checkReply(ops[i], &s.replies[i]); err != nil {
			fail(i, err)
		}
	}

	d := func(series string) float64 { return shardDelta(s.before, s.after, series) }
	if s.plan.cold {
		if h := d("softcache_trace_cache_hits_total"); h != 0 {
			o.logf("FAIL cold-serve measured %v trace-cache hits, want 0", h)
			s.correct = false
		}
		if h := d("softcache_result_cache_hits_total"); h != 0 {
			o.logf("FAIL cold-serve measured %v result-cache hits, want 0", h)
			s.correct = false
		}
	} else if l := d("softcache_trace_decodes_total"); l != 0 {
		o.logf("FAIL hot-repeat measured %v shard trace loads, want 0", l)
		s.correct = false
	}
	for _, series := range []string{"softcache_router_retries_total", "softcache_router_rerouted_total"} {
		if v := routerDelta(s.before, s.after, series); v != 0 {
			o.logf("FLAG %s = %v: this run measured failover, not the happy path", series, v)
		}
	}
	if v := d("softcache_queue_rejections_total"); v != 0 {
		o.logf("FLAG softcache_queue_rejections_total = %v: this run measured backpressure", v)
	}

	// Seeded samples: two answers against the reference model, one sweep
	// cell against /v1/simulate, one streamed answer against the JSON
	// endpoint.
	rng := rand.New(rand.NewSource(int64(splitmix(o.seed ^ 0x5a3c))))
	pickOf := func(classes ...string) int {
		var idx []int
		for i, op := range ops {
			for _, c := range classes {
				if op.class == c && !s.failed[i] {
					idx = append(idx, i)
				}
			}
		}
		if len(idx) == 0 {
			return -1
		}
		return idx[rng.Intn(len(idx))]
	}
	base, scale := s.f.router.url, o.scale.String()
	for k := 0; k < 2; k++ {
		if i := pickOf(classSimulate, classStream); i >= 0 {
			if err := refCheck(ops[i], &s.replies[i], rng.Intn(len(ops[i].specs)), o.scale); err != nil {
				fail(i, err)
			}
		}
	}
	if i := pickOf(classSweep); i >= 0 {
		if err := sweepCellCheck(ctx, base, ops[i], &s.replies[i], rng, scale); err != nil {
			fail(i, err)
		}
	}
	if i := pickOf(classStream); i >= 0 {
		if err := streamJSONCheck(ctx, base, ops[i], &s.replies[i], scale); err != nil {
			fail(i, err)
		}
	}
}

// report turns the measured phase into the run's result line and logs
// the per-class breakdown.
func (s *serveRun) report(layers map[string]metric) *result {
	o, ops := s.o, s.plan.ops
	res := &result{Correct: s.correct, Attempted: len(ops), Metrics: map[string]metric{}}
	var all []float64
	byClass := map[string][]float64{}
	byResult := map[string][]float64{}
	attempted := map[string]int{}
	failed := map[string]int{}
	for i, r := range s.replies {
		l := ms(r.latency())
		all = append(all, l)
		c := ops[i].class
		byClass[c] = append(byClass[c], l)
		byResult[ops[i].wantResult] = append(byResult[ops[i].wantResult], l)
		attempted[c]++
		if s.failed[i] {
			failed[c]++
			res.Failed++
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	for _, c := range classes {
		if attempted[c] > 0 {
			o.logf("class %-8s attempted %5d failed %d  p50 %8.3f ms  mean %8.3f ms", c, attempted[c], failed[c], median(byClass[c]), mean(byClass[c]))
		}
	}
	for _, k := range []string{"hit", "miss"} {
		if len(byResult[k]) > 0 {
			o.logf("result %-7s requests %5d  p50 %8.3f ms", k, len(byResult[k]), median(byResult[k]))
		}
	}
	o.logf("measured %d requests in %.3f s on %d client(s); %d beyond p90", len(ops), s.wall.Seconds(), s.plan.clients, len(ops)-int(0.9*float64(len(ops))))
	if s.o.traced {
		res.Metrics = layers
		return res
	}
	ok := len(ops) - res.Failed
	res.Metrics["throughput_rps"] = metric{float64(ok) / s.wall.Seconds(), "1/s"}
	res.Metrics["latency_p50_ms"] = metric{percentile(all, 50), "ms"}
	res.Metrics["latency_p90_ms"] = metric{percentile(all, 90), "ms"}
	res.Metrics["cpu_ms_per_req"] = metric{ms(s.cpu) / float64(len(ops)), "ms"}
	res.Metrics["peak_rss_mb"] = metric{s.rssMB, "MB"}
	res.Metrics["setup_s"] = metric{median(s.setups), "s"}
	return res
}
