package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"time"

	"softcache/internal/core"
	"softcache/internal/serve"
	"softcache/internal/trace"
	"softcache/internal/workloads"
)

// coldSecondsPerSuperRound is how long one cold-serve super-round (80
// requests) takes on the reference machine; -seconds is divided by it to
// size the run's fixed work.
const coldSecondsPerSuperRound = 8.5

// sweepShapes are the cold-serve sweep axes: small 2-D matrices of six
// cells (two fused rows of three configs), all expressible as
// /v1/simulate overrides so any cell can be checked.
var sweepShapes = []struct{ x, y string }{
	{"cache=4,8,16", "vline=64,128"},
	{"cache=4,8,16", "assoc=1,2"},
	{"cache=4,8,16", "latency=10,40"},
}

var sweepBases = []string{"soft", "standard", "soft-variable"}
var sweepMetrics = []string{"amat", "miss", "traffic"}

// coldWorkloads are the paper's nine benchmarks and the fig. 10a kernels.
func coldWorkloads() []string { return append(workloads.Benchmarks(), workloads.Kernels()...) }

// traceInfo is what the benchmark knows of a workload's trace.
type traceInfo struct {
	name    string
	records int
}

// traceInfos generates each workload once and returns its trace's name
// and record count. The built-in workloads' record counts do not depend
// on the trace seed; every streamed body and every reference-model
// sample regenerates its exact trace and confirms it.
func traceInfos(names []string, scale workloads.Scale) (map[string]traceInfo, error) {
	out := make(map[string]traceInfo, len(names))
	for _, n := range names {
		t, err := workloads.Trace(n, scale, 1)
		if err != nil {
			return nil, err
		}
		out[n] = traceInfo{t.Name, t.Len()}
	}
	return out, nil
}

// configsFor returns the k-th config group of n distinct named configs:
// a rotation through core.ConfigNames, so the make-up of a schedule's
// groups, and with it their kernel cost, is the same for every seed.
func configsFor(k, n int) []string {
	names := core.ConfigNames()
	out := make([]string, n)
	for j := range out {
		// 3 is coprime to the 14 names, so the n <= 14 picks are distinct.
		out[j] = names[(k+3*j)%len(names)]
	}
	return out
}

func specsOf(names []string) []serve.ConfigSpec {
	out := make([]serve.ConfigSpec, len(names))
	for i, n := range names {
		out[i] = serve.ConfigSpec{Name: n}
	}
	return out
}

func simulateOp(w string, seed uint64, scale workloads.Scale, specs []serve.ConfigSpec, ti traceInfo) (*op, error) {
	req := serve.SimulateRequest{Configs: specs}
	req.Workload, req.Scale, req.Seed = w, scale.String(), seed
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	return &op{class: classSimulate, path: "/v1/simulate", body: body, workload: w, traceName: ti.name,
		seed: seed, specs: specs, records: ti.records, wantResult: "miss"}, nil
}

func sweepOp(w string, seed uint64, scale workloads.Scale, sw serve.SweepRequest, ti traceInfo) (*op, error) {
	sw.Workload, sw.Scale, sw.Seed = w, scale.String(), seed
	body, err := json.Marshal(sw)
	if err != nil {
		return nil, err
	}
	return &op{class: classSweep, path: "/v1/sweep", body: body, workload: w, traceName: ti.name,
		seed: seed, sweep: &sw, records: ti.records, wantResult: "miss"}, nil
}

// streamOp generates the trace and encodes it as an SCTZ upload body.
func streamOp(w string, seed uint64, scale workloads.Scale, names []string, ti traceInfo) (*op, error) {
	t, err := workloads.Trace(w, scale, seed)
	if err != nil {
		return nil, err
	}
	if t.Len() != ti.records || t.Name != ti.name {
		return nil, fmt.Errorf("%s seed %d is %s with %d records, seed 1 is %s with %d", w, seed, t.Name, t.Len(), ti.name, ti.records)
	}
	var b bytes.Buffer
	if err := trace.WriteSCTZ(&b, t); err != nil {
		return nil, err
	}
	body := b.Bytes()
	return &op{class: classStream, path: streamQuery(names), body: body, workload: w, traceName: t.Name,
		seed: seed, specs: specsOf(names), records: t.Len(), fp: sha256Hex(body), wantResult: "miss"}, nil
}

// coldPlan builds cold-serve's schedule. A super-round is five rounds of
// one request per workload; request class rotates with the round so each
// workload is asked three times by /v1/simulate, once by /v1/sweep and
// once by a streamed upload. The seed picks every request's fresh trace
// seed and the order within each round; the config groups rotate. The
// first super-round is answered before measuring: it grows the shards'
// heaps and fills their trace caches to budget, so the measured phase
// sees cold requests at steady state (evicting, not growing).
func coldPlan(o *options) (*servePlan, error) {
	names := coldWorkloads()
	infos, err := traceInfos(names, o.scale)
	if err != nil {
		return nil, err
	}
	superRounds := o.rounds
	if superRounds == 0 {
		superRounds = max(1, int(math.Round(float64(o.seconds)/coldSecondsPerSuperRound)))
	}
	rng := rand.New(rand.NewSource(int64(splitmix(o.seed ^ 0xc01d))))
	plan := &servePlan{clients: 1, cold: true}
	seq, nSim, nSweep, nStream := 0, 0, 0, 0
	for s := 0; s <= superRounds; s++ {
		for r := 0; r < 5; r++ {
			round := make([]*op, 0, len(names))
			for i, w := range names {
				seed := traceSeed(o.seed, seq)
				seq++
				var p *op
				switch (i + r) % 5 {
				case 0, 1, 2:
					p, err = simulateOp(w, seed, o.scale, specsOf(configsFor(nSim, 2+nSim%5)), infos[w])
					nSim++
				case 3:
					shape := sweepShapes[nSweep%len(sweepShapes)]
					sw := serve.SweepRequest{
						Config: sweepBases[nSweep%len(sweepBases)],
						X:      shape.x, Y: shape.y,
						Metric: sweepMetrics[nSweep/len(sweepShapes)%len(sweepMetrics)],
					}
					p, err = sweepOp(w, seed, o.scale, sw, infos[w])
					nSweep++
				case 4:
					p, err = streamOp(w, seed, o.scale, configsFor(nStream, 2+nStream%3), infos[w])
					nStream++
				}
				if err != nil {
					return nil, err
				}
				round = append(round, p)
			}
			rng.Shuffle(len(round), func(a, b int) { round[a], round[b] = round[b], round[a] })
			if s == 0 {
				plan.pool = append(plan.pool, round...)
			} else {
				plan.ops = append(plan.ops, round...)
			}
		}
	}
	return plan, nil
}

func runCold(ctx context.Context, o *options) (*result, error) {
	t0 := time.Now()
	plan, err := coldPlan(o)
	if err != nil {
		return nil, err
	}
	o.logf("inputs built in %.2f s", time.Since(t0).Seconds())
	return runServe(ctx, o, plan)
}
