package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"time"

	"softcache/internal/serve"
	"softcache/internal/workloads"
)

// Hot-repeat round make-up: 40 requests, 35 of them repeats of the pool
// (21 simulate, 7 sweep, 7 streamed uploads) and 5 warm misses (3
// simulate, 2 sweep) with config groups never asked before.
const (
	hotSimHits, hotSweepHits, hotStreamHits = 21, 7, 7
	hotSimMisses, hotSweepMisses            = 3, 2
	// hotRoundsPerSecond sizes the run's fixed work from -seconds on the
	// reference machine.
	hotRoundsPerSecond = 9.0
)

// The pool: every benchmark by /v1/simulate, three small sweeps, three
// streamed uploads. Together the traces stay well inside the default
// 256 MiB trace-cache budget of each shard (about 4M records, ~100 MiB
// decoded, split over two shards).
var (
	hotSweepWorkloads  = []string{"MV", "NAS", "LIV"}
	hotStreamWorkloads = []string{"MV", "TRF", "ADM-kernel"}
)

// poolSeed is the trace seed of every pooled request. The pool is the
// same for every run, so its traces land on the same shards each time;
// the run's seed draws the schedule.
const poolSeed = 1

// hotPlan builds hot-repeat's pool and schedule. Repeats are drawn with a
// seeded Zipf skew over each class's pool entries (rank = pool order, so
// the popularity ranking is the same for every seed) and shuffled within
// each round.
func hotPlan(o *options) (*servePlan, error) {
	sims := workloads.Benchmarks()
	infos, err := traceInfos(append(append([]string(nil), sims...), hotStreamWorkloads...), o.scale)
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(int64(splitmix(o.seed ^ 0x407))))
	plan := &servePlan{clients: workers()}

	var simPool, sweepPool, streamPool []*op
	for i, w := range sims {
		p, err := simulateOp(w, poolSeed, o.scale, specsOf(configsFor(i, 3)), infos[w])
		if err != nil {
			return nil, err
		}
		simPool = append(simPool, p)
	}
	for i, w := range hotSweepWorkloads {
		shape := sweepShapes[i%len(sweepShapes)]
		sw := serve.SweepRequest{Config: sweepBases[i%len(sweepBases)], X: shape.x, Y: shape.y,
			Metric: sweepMetrics[i%len(sweepMetrics)]}
		p, err := sweepOp(w, poolSeed, o.scale, sw, infos[w])
		if err != nil {
			return nil, err
		}
		sweepPool = append(sweepPool, p)
	}
	for i, w := range hotStreamWorkloads {
		p, err := streamOp(w, poolSeed, o.scale, configsFor(len(sims)+i, 3), infos[w])
		if err != nil {
			return nil, err
		}
		streamPool = append(streamPool, p)
	}
	plan.pool = append(append(append(plan.pool, simPool...), sweepPool...), streamPool...)

	repeat := func(z *rand.Zipf, pool []*op) *op {
		src := pool[z.Uint64()]
		h := *src
		h.src, h.wantResult = src, "hit"
		return &h
	}
	zipf := func(n int) *rand.Zipf { return rand.NewZipf(rng, 1.2, 1, uint64(n-1)) }
	zSim, zSweep, zStream := zipf(len(simPool)), zipf(len(sweepPool)), zipf(len(streamPool))

	rounds := o.rounds
	if rounds == 0 {
		rounds = max(1, int(math.Round(float64(o.seconds)*hotRoundsPerSecond)))
	}
	misses := 0
	for r := 0; r < rounds; r++ {
		var round []*op
		for i := 0; i < hotSimHits; i++ {
			round = append(round, repeat(zSim, simPool))
		}
		for i := 0; i < hotSweepHits; i++ {
			round = append(round, repeat(zSweep, sweepPool))
		}
		for i := 0; i < hotStreamHits; i++ {
			round = append(round, repeat(zStream, streamPool))
		}
		// Warm misses rotate over the pooled traces; the memory latency
		// makes each config group unique within the run.
		for i := 0; i < hotSimMisses; i++ {
			src := simPool[misses%len(simPool)]
			lat := 1000 + misses
			misses++
			specs := []serve.ConfigSpec{{Name: src.specs[0].Name, Latency: lat}, {Name: src.specs[1].Name, Latency: lat}}
			p, err := simulateOp(src.workload, poolSeed, o.scale, specs, infos[src.workload])
			if err != nil {
				return nil, err
			}
			round = append(round, p)
		}
		for i := 0; i < hotSweepMisses; i++ {
			src := sweepPool[misses%len(sweepPool)]
			lat := 1000 + misses
			misses++
			sw := *src.sweep
			sw.X, sw.Y = fmt.Sprintf("latency=%d,%d", lat, lat+1<<19), ""
			p, err := sweepOp(src.workload, poolSeed, o.scale, sw, infos[src.workload])
			if err != nil {
				return nil, err
			}
			round = append(round, p)
		}
		rng.Shuffle(len(round), func(a, b int) { round[a], round[b] = round[b], round[a] })
		plan.ops = append(plan.ops, round...)
	}
	return plan, nil
}

func runHot(ctx context.Context, o *options) (*result, error) {
	t0 := time.Now()
	plan, err := hotPlan(o)
	if err != nil {
		return nil, err
	}
	o.logf("inputs built in %.2f s", time.Since(t0).Seconds())
	return runServe(ctx, o, plan)
}
