package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"softcache/internal/bench"
	"softcache/internal/core"
	"softcache/internal/resultcache"
	"softcache/internal/serve"
	"softcache/internal/stackdist"
	"softcache/internal/trace"
	"softcache/internal/workloads"
)

// span is one timed interval of a traced run: a client request (parent
// 0) or one replayed layer call under it.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Req    int     `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
	// Input names a request span's workload and, for a served request,
	// its result-cache outcome, so spans can be grouped by what was asked.
	Input string `json:"input,omitempty"`
}

// tracer keeps a run's spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: ms(start.Sub(t.t0)), End: ms(end.Sub(t.t0))})
	return id
}

// write stores the spans as one JSON array under the build directory.
func (t *tracer) write(o *options) (string, error) {
	dir := filepath.Join(o.root, ".bench_build", "e2ebench", "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", o.workload, o.seed))
	b, err := json.Marshal(t.spans)
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, b, 0o644)
}

// layerNames lists every per-layer metric with its unit, in report
// order; a layer a workload does not use reports 0.
func layerNames() []struct{ name, unit string } {
	out := []struct{ name, unit string }{
		{"tracegen.ns_per_record", "ns"},
		{"tracegen.alloc_bytes_per_record", "B"},
		{"trace.sctz_decode_ns_per_record", "ns"},
		{"core.kernel_ns_per_record_config", "ns"},
		{"core.record_configs", "count"},
		{"stackdist.ns_per_record", "ns"},
		{"bench.trace_acquire_s", "s"},
	}
	for _, id := range bench.IDs() {
		out = append(out, struct{ name, unit string }{"bench.figure." + id + "_s", "s"})
	}
	out = append(out, []struct{ name, unit string }{
		{"serve.handler_ms.simulate", "ms"},
		{"serve.handler_ms.sweep", "ms"},
		{"serve.handler_ms.simulate_trace", "ms"},
		{"serve.trace_cache_hit_ratio", "ratio"},
		{"serve.trace_loads", "count"},
		{"serve.trace_cache_evictions", "count"},
		{"serve.render_us", "us"},
		{"serve.queue_rejections", "count"},
		{"resultcache.get_us", "us"},
		{"resultcache.put_us", "us"},
		{"resultcache.hit_ratio", "ratio"},
		{"resultcache.stores", "count"},
		{"resultcache.evictions", "count"},
		{"cluster.relay_ms", "ms"},
		{"cluster.stream_relay_ms", "ms"},
		{"cluster.retries", "count"},
		{"cluster.rerouted", "count"},
	}...)
	for _, c := range classes {
		out = append(out, struct{ name, unit string }{"client_ms." + c, "ms"})
		out = append(out, struct{ name, unit string }{"unattributed_ms." + c, "ms"})
	}
	return out
}

// layerSet accumulates per-layer metrics; finish fills every name the
// run did not measure with 0.
type layerSet map[string]float64

func (l layerSet) finish() map[string]metric {
	out := make(map[string]metric)
	for _, n := range layerNames() {
		out[n.name] = metric{l[n.name], n.unit}
	}
	return out
}

// genStats accumulates trace-generation replays.
type genStats struct {
	d       time.Duration
	alloc   uint64
	records int
}

// generate replays workloads.Trace, measuring time and allocated bytes.
func (g *genStats) generate(w string, scale workloads.Scale, seed uint64) (*trace.Trace, time.Time, time.Time, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	t, err := workloads.Trace(w, scale, seed)
	end := time.Now()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, start, end, err
	}
	g.d += end.Sub(start)
	g.alloc += m1.TotalAlloc - m0.TotalAlloc
	g.records += t.Len()
	return t, start, end, nil
}

func (g *genStats) report(l layerSet) {
	if g.records > 0 {
		l["tracegen.ns_per_record"] = float64(g.d.Nanoseconds()) / float64(g.records)
		l["tracegen.alloc_bytes_per_record"] = float64(g.alloc) / float64(g.records)
	}
}

// kernelStats accumulates fused-kernel replays.
type kernelStats struct {
	d             time.Duration
	recordConfigs int
}

func (k *kernelStats) run(ctx context.Context, cfgs []core.Config, t *trace.Trace) ([]core.Result, time.Time, time.Time, error) {
	start := time.Now()
	res, err := core.SimulateManyTrace(ctx, cfgs, t)
	end := time.Now()
	k.d += end.Sub(start)
	k.recordConfigs += len(cfgs) * t.Len()
	return res, start, end, err
}

func (k *kernelStats) report(l layerSet) {
	if k.recordConfigs > 0 {
		l["core.kernel_ns_per_record_config"] = float64(k.d.Nanoseconds()) / float64(k.recordConfigs)
		l["core.record_configs"] = float64(k.recordConfigs)
	}
}

// encodeLike renders v the way the service renders its JSON bodies.
func encodeLike(v any) []byte {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	enc.Encode(v)
	return buf.Bytes()
}

// replayKey is the result-cache key a replayed request is stored under.
func replayKey(p *op) string {
	return resultcache.Key{Kind: p.class, Trace: p.workload, Configs: p.path + "\x00" + string(p.body),
		Version: core.KernelVersion, Format: "json"}.String()
}

// unattributedShare bounds |unattributed_ms.<class>| as a share of
// client_ms.<class> on cold-serve at paper scale, where the replayed
// layers (trace generation or decode, the kernel, rendering, the result
// cache) and the router's relay are nearly all of a request. A traced
// run whose layers do not add up to its client latency within these
// shares is incorrect. At test scale a request's fixed HTTP cost is a
// large share of it, so the shares are not held there.
var unattributedShare = map[string]float64{classSimulate: 0.15, classSweep: 0.15, classStream: 0.25}

// reconcile checks that the replayed layer time explains the client
// latency to within share of it, in either direction.
func reconcile(client, explained, share float64) error {
	un := client - explained
	if math.Abs(un) > share*client {
		return fmt.Errorf("layers explain %.3f ms of the %.3f ms client latency; the unattributed %.3f ms is more than %.0f%% of it",
			explained, client, un, 100*share)
	}
	return nil
}

// replayer is the traced half of a serve run: one span per measured
// request, and each request's layer calls replayed in this process
// through the layers' public functions, one child span per call. The
// replay reproduces the shard's response bytes, which it checks.
type replayer struct {
	s   *serveRun
	ctx context.Context
	tr  *tracer
	rc  *resultcache.Cache
	// traces holds what a request names: on hot-repeat the pool's traces,
	// generated during set-up; cold traces are never named twice.
	traces map[string]*trace.Trace

	gen                 genStats
	kern                kernelStats
	decodeD             time.Duration
	decodeRecords       int
	renderD, getD, putD time.Duration
	renders, gets, puts int
	layerMS             map[string]float64   // summed replayed layer time per class
	reqMS               map[string][]float64 // client latencies per class
	mismatches          int
	err                 error // the first replay error; later replays are skipped
}

// newReplayer opens the replay's scratch result cache over the pool's
// answers and, on hot-repeat, replays the pool's trace generation and
// decoding: its shards generate and decode nothing while measured. The
// caller closes rp.rc.
func newReplayer(ctx context.Context, s *serveRun, dir string) (*replayer, error) {
	rp := &replayer{s: s, ctx: ctx, tr: &tracer{t0: s.poolStart}, traces: map[string]*trace.Trace{},
		layerMS: map[string]float64{}, reqMS: map[string][]float64{}}
	var err error
	if rp.rc, err = resultcache.Open(filepath.Join(dir, "replay-results"), 256<<20, 0); err != nil {
		return nil, err
	}
	for _, p := range s.plan.pool {
		if err := rp.rc.Put(replayKey(p), p.answer); err != nil {
			rp.rc.Close()
			return nil, err
		}
	}
	if s.plan.cold {
		return rp, nil
	}
	for _, p := range s.plan.pool {
		if p.class != classStream {
			if _, err := rp.traceOf(p, 0, 0); err != nil {
				rp.rc.Close()
				return nil, err
			}
			continue
		}
		start := time.Now()
		n, err := drainDecode(p.body)
		if err != nil {
			rp.rc.Close()
			return nil, err
		}
		rp.decodeD += time.Since(start)
		rp.decodeRecords += n
	}
	return rp, nil
}

// traceOf generates the trace a request names, timing it as a child of
// the request's span when parent > 0.
func (rp *replayer) traceOf(p *op, req, parent int) (*trace.Trace, error) {
	key := fmt.Sprintf("%s/%d", p.workload, p.seed)
	if t, ok := rp.traces[key]; ok {
		return t, nil
	}
	t, start, end, err := rp.gen.generate(p.workload, rp.s.o.scale, p.seed)
	if err != nil {
		return nil, err
	}
	if parent > 0 {
		rp.tr.add("tracegen", parent, req, start, end)
		rp.layerMS[p.class] += ms(end.Sub(start))
	}
	if !rp.s.plan.cold {
		rp.traces[key] = t
	}
	return t, nil
}

// replay records request i's span and replays its layer calls.
func (rp *replayer) replay(i int, r *reply) {
	if rp.err == nil {
		rp.err = rp.replayOne(i, r)
	}
}

func (rp *replayer) replayOne(i int, r *reply) error {
	p, tr, ctx := rp.s.plan.ops[i], rp.tr, rp.ctx
	root := tr.add(p.class, 0, i, r.start, r.end)
	tr.spans[root-1].Input = p.workload + " " + r.result
	rp.reqMS[p.class] = append(rp.reqMS[p.class], ms(r.latency()))
	child := func(name string, start, end time.Time) {
		tr.add(name, root, i, start, end)
		rp.layerMS[p.class] += ms(end.Sub(start))
	}
	key := replayKey(p)
	start := time.Now()
	_, hit := rp.rc.Get(key)
	end := time.Now()
	child("resultcache.get", start, end)
	rp.gets++
	rp.getD += end.Sub(start)
	if hit {
		return nil
	}

	var body []byte
	switch p.class {
	case classSimulate, classStream:
		var t *trace.Trace
		var err error
		if p.class == classStream {
			// The shard decodes the upload fused with the kernel; the
			// replay drains the decoder alone, then runs the kernel on
			// the same records.
			start := time.Now()
			n, err := drainDecode(p.body)
			end := time.Now()
			if err != nil {
				return err
			}
			child("trace.decode", start, end)
			rp.decodeD += end.Sub(start)
			rp.decodeRecords += n
			if t, err = trace.ReadAll(mustReader(p.body)); err != nil {
				return err
			}
		} else if t, err = rp.traceOf(p, i, root); err != nil {
			return err
		}
		cfgs, err := buildConfigs(p.specs)
		if err != nil {
			return err
		}
		results, start, end, err := rp.kern.run(ctx, cfgs, t)
		if err != nil {
			return err
		}
		child("core.kernel", start, end)
		start = time.Now()
		resp := serve.SimulateResponse{Trace: t.Name, References: uint64(t.Len())}
		for _, res := range results {
			resp.Results = append(resp.Results, serve.ConfigResult{Config: res.Config, AMAT: res.AMAT(),
				MissRatio: res.MissRatio(), WordsPerRef: res.Stats.WordsPerReference(), Stats: res.Stats})
		}
		body = encodeLike(resp)
		end = time.Now()
		child("serve.render", start, end)
		rp.renderD += end.Sub(start)
		rp.renders++
	case classSweep:
		t, err := rp.traceOf(p, i, root)
		if err != nil {
			return err
		}
		x, y, rows, err := sweepRows(p.sweep)
		if err != nil {
			return err
		}
		resp := serve.SweepResponse{Trace: t.Name, Metric: p.sweep.Metric, XKey: x.Key, XValues: x.Values, YKey: y.Key}
		if y.Key != "" {
			resp.YValues = y.Values
		}
		var results [][]core.Result
		for _, cfgs := range rows {
			res, start, end, err := rp.kern.run(ctx, cfgs, t)
			if err != nil {
				return err
			}
			child("core.kernel", start, end)
			results = append(results, res)
		}
		start := time.Now()
		for _, row := range results {
			vals := make([]float64, len(row))
			for j, res := range row {
				vals[j], _ = core.MetricOf(p.sweep.Metric, res)
			}
			resp.Rows = append(resp.Rows, vals)
		}
		body = encodeLike(resp)
		end := time.Now()
		child("serve.render", start, end)
		rp.renderD += end.Sub(start)
		rp.renders++
	}
	if !bytes.Equal(body, r.body) {
		rp.mismatches++
	}
	start = time.Now()
	if err := rp.rc.Put(key, body); err != nil {
		return err
	}
	end = time.Now()
	child("resultcache.put", start, end)
	rp.putD += end.Sub(start)
	rp.puts++
	return nil
}

// finish measures the router's relay, reconciles each class's layers
// with its client latency, writes the spans and returns the per-layer
// metrics.
func (rp *replayer) finish() (map[string]metric, error) {
	if rp.err != nil {
		return nil, rp.err
	}
	s, o := rp.s, rp.s.o
	if rp.mismatches > 0 {
		o.logf("FAIL %d replayed responses differ from the served bytes", rp.mismatches)
		s.correct = false
	}
	relay, err := s.measureRelay(rp.ctx)
	if err != nil {
		return nil, err
	}

	l := layerSet{}
	rp.gen.report(l)
	rp.kern.report(l)
	if rp.decodeRecords > 0 {
		l["trace.sctz_decode_ns_per_record"] = float64(rp.decodeD.Nanoseconds()) / float64(rp.decodeRecords)
	}
	if rp.renders > 0 {
		l["serve.render_us"] = float64(rp.renderD.Nanoseconds()) / 1e3 / float64(rp.renders)
	}
	if rp.gets > 0 {
		l["resultcache.get_us"] = float64(rp.getD.Nanoseconds()) / 1e3 / float64(rp.gets)
	}
	if rp.puts > 0 {
		l["resultcache.put_us"] = float64(rp.putD.Nanoseconds()) / 1e3 / float64(rp.puts)
	}
	l["cluster.relay_ms"] = relay[classSimulate]
	l["cluster.stream_relay_ms"] = relay[classStream]
	for _, c := range classes {
		n := len(rp.reqMS[c])
		if n == 0 {
			continue
		}
		client, layers := mean(rp.reqMS[c]), rp.layerMS[c]/float64(n)
		un := client - layers - relay[c]
		l["client_ms."+c] = client
		l["unattributed_ms."+c] = un
		o.logf("reconcile %-8s client %.3f ms = layers %.3f + relay %.3f + unattributed %.3f ms (%.1f%%)",
			c, client, layers, relay[c], un, 100*un/client)
		if s.plan.cold && o.scale == workloads.ScalePaper {
			if err := reconcile(client, layers+relay[c], unattributedShare[c]); err != nil {
				o.logf("FAIL cold-serve %s: %v", c, err)
				s.correct = false
			}
		}
	}

	d := func(series string) float64 { return shardDelta(s.before, s.after, series) }
	for _, ep := range []string{"simulate", "sweep", "simulate_trace"} {
		sel := fmt.Sprintf("{endpoint=%q}", ep)
		if n := d("softcache_requests_total" + sel); n > 0 {
			l["serve.handler_ms."+ep] = d("softcache_request_seconds_total"+sel) * 1e3 / n
		}
	}
	if h, m := d("softcache_trace_cache_hits_total"), d("softcache_trace_cache_misses_total"); h+m > 0 {
		l["serve.trace_cache_hit_ratio"] = h / (h + m)
	}
	l["serve.trace_loads"] = d("softcache_trace_decodes_total")
	l["serve.trace_cache_evictions"] = d("softcache_trace_cache_evictions_total")
	l["serve.queue_rejections"] = d("softcache_queue_rejections_total")
	if h, m := d("softcache_result_cache_hits_total"), d("softcache_result_cache_misses_total"); h+m > 0 {
		l["resultcache.hit_ratio"] = h / (h + m)
	}
	l["resultcache.stores"] = d("softcache_result_cache_stores_total")
	l["resultcache.evictions"] = d("softcache_result_cache_evictions_total")
	l["cluster.retries"] = routerDelta(s.before, s.after, "softcache_router_retries_total")
	l["cluster.rerouted"] = routerDelta(s.before, s.after, "softcache_router_rerouted_total")

	path, err := rp.tr.write(o)
	if err != nil {
		return nil, err
	}
	o.logf("wrote %d spans to %s", len(rp.tr.spans), path)
	return l.finish(), nil
}

func mustReader(body []byte) trace.BatchReader {
	r, err := trace.NewAnyReader(bytes.NewReader(body), "upload")
	if err != nil {
		panic(err) // the same body was just drained without error
	}
	return r
}

// drainDecode decodes an upload with trace.NewAnyReader, draining it by
// ReadBatch, and returns the record count.
func drainDecode(body []byte) (int, error) {
	r, err := trace.NewAnyReader(bytes.NewReader(body), "upload")
	if err != nil {
		return 0, err
	}
	buf := trace.GetBatch()
	defer trace.PutBatch(buf)
	n := 0
	for {
		k, err := r.ReadBatch(*buf)
		n += k
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
	}
}

// relaySamples is how many already-answered requests of each class the
// relay measurement sends both routed and direct.
const relaySamples = 60

// measureRelay sends answered requests of each class through the router
// and straight to the shard that answered them, alternating, and returns
// per class the difference of the medians: the router's relay cost per
// request, buffered for simulate and sweep, streamed for uploads. Every
// sample is a result-cache hit on both paths.
func (s *serveRun) measureRelay(ctx context.Context) (map[string]float64, error) {
	client := newClient()
	defer client.CloseIdleConnections()
	direct := newClient()
	defer direct.CloseIdleConnections()
	relay := map[string]float64{}
	for _, c := range classes {
		var idx []int
		for i, p := range s.plan.ops {
			if !s.failed[i] && p.class == c {
				idx = append(idx, i)
			}
		}
		if len(idx) == 0 {
			continue
		}
		step := max(1, len(idx)/relaySamples)
		var routed, straight []float64
		for k := 0; k < len(idx) && len(routed) < relaySamples; k += step {
			i := idx[k]
			p := *s.plan.ops[i]
			shardURL, ok := s.f.shardURL(s.replies[i].shard)
			if !ok {
				return nil, fmt.Errorf("answer #%d names unknown shard %q", i, s.replies[i].shard)
			}
			a := send(ctx, client, s.f.router.url, &p)
			b := send(ctx, direct, shardURL, &p)
			if a.err != nil || b.err != nil || a.status != http.StatusOK || b.status != http.StatusOK {
				return nil, fmt.Errorf("relay sample #%d failed: %v %v %d %d", i, a.err, b.err, a.status, b.status)
			}
			if a.result != "hit" || b.result != "hit" {
				return nil, fmt.Errorf("relay sample #%d was not a result-cache hit", i)
			}
			routed = append(routed, ms(a.latency()))
			straight = append(straight, ms(b.latency()))
		}
		s.o.logf("relay %-8s %d hits, routed p50 %.3f ms, direct p50 %.3f ms", c, len(routed), median(routed), median(straight))
		relay[c] = median(routed) - median(straight)
	}
	return relay, nil
}

// figureLayers is paper-figures' traced run: trace generation, the fused
// kernel and the stack-distance pass replayed over the figure job's base
// traces, then
// per-figure times and trace acquisition from a cold and a prewarmed
// pass through internal/bench.
func figureLayers(ctx context.Context, o *options) (*result, error) {
	tr := &tracer{t0: time.Now()}
	l := layerSet{}

	// Replays first, on a small heap, so the two passes below do not
	// slow them with garbage collection over the figure job's traces.
	var gen genStats
	var kern kernelStats
	var stackD time.Duration
	stackRecords := 0
	group := []core.Config{core.Standard(), core.Soft(), core.SoftVariable()}
	for i, w := range coldWorkloads() {
		t, genStart, genEnd, err := gen.generate(w, o.scale, o.seed)
		if err != nil {
			return nil, err
		}
		_, kernStart, kernEnd, err := kern.run(ctx, group, t)
		if err != nil {
			return nil, err
		}
		// Fig. 3c's stack-distance pass: the standard cache's line size,
		// four times its capacity in lines tracked.
		std := core.Standard()
		stackStart := time.Now()
		stackdist.Analyze(t, std.LineSize, 4*std.CacheSize/std.LineSize)
		stackEnd := time.Now()
		stackD += stackEnd.Sub(stackStart)
		stackRecords += t.Len()
		root := tr.add("figure-trace:"+w, 0, i, genStart, stackEnd)
		tr.add("tracegen", root, i, genStart, genEnd)
		tr.add("core.kernel", root, i, kernStart, kernEnd)
		tr.add("stackdist", root, i, stackStart, stackEnd)
	}
	gen.report(l)
	kern.report(l)
	l["stackdist.ns_per_record"] = float64(stackD.Nanoseconds()) / float64(stackRecords)

	bctx := bench.NewContext(o.scale, o.seed)
	var passes [2]*figureRound
	for i, name := range []string{"pass:cold", "pass:prewarmed"} {
		start := time.Now()
		fr, err := regenerate(ctx, bctx, o.figureIDs(), false)
		if err != nil {
			return nil, err
		}
		tr.add(name, 0, len(coldWorkloads())+i, start, time.Now())
		passes[i] = fr
	}
	cold, warm := passes[0], passes[1]
	res := &result{Correct: cold.Failed == 0 && warm.Failed == 0, Attempted: cold.Units + warm.Units,
		Failed: cold.Failed + warm.Failed}
	l["bench.trace_acquire_s"] = (cold.Wall - warm.Wall).Seconds()
	for id, d := range cold.Elapsed {
		l["bench.figure."+id+"_s"] = d.Seconds()
	}
	path, err := tr.write(o)
	if err != nil {
		return nil, err
	}
	o.logf("cold pass %.3f s, prewarmed pass %.3f s; wrote %d spans to %s", cold.Wall.Seconds(), warm.Wall.Seconds(), len(tr.spans), path)
	res.Metrics = l.finish()
	return res, nil
}
