package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"softcache/internal/cache"
	"softcache/internal/cache/refmodel"
	"softcache/internal/core"
	"softcache/internal/serve"
	"softcache/internal/workloads"
)

// Request classes, named after the endpoint they hit.
const (
	classSimulate = "simulate"
	classSweep    = "sweep"
	classStream   = "stream"
)

var classes = []string{classSimulate, classSweep, classStream}

// op is one request of a workload's schedule, plus everything the checks
// and the layer replays need to know about it.
type op struct {
	class string
	path  string // with query string for streamed uploads
	body  []byte

	workload  string
	traceName string // the name the generated trace carries
	seed      uint64
	specs     []serve.ConfigSpec  // simulate and stream
	sweep     *serve.SweepRequest // sweep
	records   int                 // records of the named or uploaded trace
	fp        string              // SHA-256 of a streamed body
	// wantResult is the X-Softcache-Result the request must get.
	wantResult string
	// src, for a repeat of a pool request, is that pool request; answer
	// is the body the pool request got when it missed. A hit must be
	// byte-identical to it.
	src    *op
	answer []byte
}

// reply is what one request got back.
type reply struct {
	status     int
	body       []byte
	result     string // X-Softcache-Result
	fp         string // X-Softcache-Trace-Fingerprint
	shard      string // X-Softcache-Shard
	start, end time.Time
	err        error
}

func (r *reply) latency() time.Duration { return r.end.Sub(r.start) }

// newClient returns an HTTP client holding at most one connection, so
// the benchmark's connection count equals its client count.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// send issues one request and reads its whole answer.
func send(ctx context.Context, c *http.Client, base string, o *op) reply {
	var r reply
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+o.path, bytes.NewReader(o.body))
	if err != nil {
		r.err = err
		return r
	}
	if o.class == classStream {
		req.Header.Set("Content-Type", "application/octet-stream")
	} else {
		req.Header.Set("Content-Type", "application/json")
	}
	r.start = time.Now()
	resp, err := c.Do(req)
	if err != nil {
		r.end = time.Now()
		r.err = err
		return r
	}
	r.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.end = time.Now()
	r.status = resp.StatusCode
	if err != nil {
		r.err = fmt.Errorf("reading the %s answer after %d bytes: %w", resp.Status, len(r.body), err)
	}
	r.result = resp.Header.Get(serve.ResultHeader)
	r.fp = resp.Header.Get(serve.TraceFingerprintHeader)
	r.shard = resp.Header.Get("X-Softcache-Shard")
	return r
}

// drive runs ops in a closed loop on the given number of clients: each
// client sends its next request only when the previous one completed.
// after, when not nil, runs on the client's goroutine between a reply
// and that client's next request.
func drive(ctx context.Context, f *fleet, ops []*op, clients int, after func(i int, r *reply)) []reply {
	replies := make([]reply, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newClient()
			defer client.CloseIdleConnections()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) || ctx.Err() != nil {
					return
				}
				replies[i] = send(ctx, client, f.router.url, ops[i])
				if after != nil {
					after(i, &replies[i])
				}
			}
		}()
	}
	wg.Wait()
	return replies
}

// buildConfig resolves a ConfigSpec the way the service does: the named
// design point, then the overrides.
func buildConfig(cs serve.ConfigSpec) (core.Config, error) {
	name := cs.Name
	if name == "" {
		name = "soft"
	}
	cfg, err := core.ConfigByName(name)
	if err != nil {
		return cfg, err
	}
	if cs.CacheKB > 0 {
		cfg.CacheSize = cs.CacheKB << 10
	}
	if cs.Line > 0 {
		cfg.LineSize = cs.Line
	}
	if cs.VLine != nil {
		cfg.VirtualLineSize = *cs.VLine
	}
	if cs.Latency > 0 {
		cfg = core.WithLatency(cfg, cs.Latency)
	}
	if cs.Assoc > 0 {
		cfg.Assoc = cs.Assoc
	}
	return cfg, cfg.Validate()
}

func buildConfigs(specs []serve.ConfigSpec) ([]core.Config, error) {
	out := make([]core.Config, len(specs))
	for i, cs := range specs {
		cfg, err := buildConfig(cs)
		if err != nil {
			return nil, err
		}
		out[i] = cfg
	}
	return out, nil
}

// sweepRows expands a sweep request into its per-row config groups, in
// the service's row-major order.
func sweepRows(req *serve.SweepRequest) (x, y core.Axis, rows [][]core.Config, err error) {
	base, err := core.ConfigByName(req.Config)
	if err != nil {
		return x, y, nil, err
	}
	if x, err = core.ParseAxis(req.X); err != nil {
		return x, y, nil, err
	}
	y = core.Axis{Values: []int{0}}
	if req.Y != "" {
		if y, err = core.ParseAxis(req.Y); err != nil {
			return x, y, nil, err
		}
	}
	for _, yv := range y.Values {
		rowBase := base
		if y.Key != "" {
			if rowBase, err = core.ApplyAxis(base, y.Key, yv); err != nil {
				return x, y, nil, err
			}
		}
		row := make([]core.Config, len(x.Values))
		for i, xv := range x.Values {
			if row[i], err = core.ApplyAxis(rowBase, x.Key, xv); err != nil {
				return x, y, nil, err
			}
		}
		rows = append(rows, row)
	}
	return x, y, rows, nil
}

// axisSpec is the /v1/simulate override equivalent to one sweep cell.
func axisSpec(cs *serve.ConfigSpec, key string, v int) error {
	switch key {
	case "cache":
		cs.CacheKB = v
	case "line":
		cs.Line = v
	case "vline":
		cs.VLine = &v
	case "latency":
		cs.Latency = v
	case "assoc":
		cs.Assoc = v
	default:
		return fmt.Errorf("axis %q has no /v1/simulate override", key)
	}
	return nil
}

// decodeStrict decodes one JSON document, rejecting unknown fields.
func decodeStrict(b []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON body")
	}
	return nil
}

// conserved checks the accounting identities every served Stats obeys:
// hit classes + misses = references = reads + writes = trace records.
func conserved(st cache.Stats, records int) error {
	hits := st.MainHits + st.BounceBackHits + st.BypassBufferHits + st.StreamBufferHits
	switch {
	case hits+st.Misses != st.References:
		return fmt.Errorf("hits %d + misses %d != references %d", hits, st.Misses, st.References)
	case st.Reads+st.Writes != st.References:
		return fmt.Errorf("reads %d + writes %d != references %d", st.Reads, st.Writes, st.References)
	case st.References != uint64(records):
		return fmt.Errorf("references %d != %d trace records", st.References, records)
	}
	return nil
}

// checkReply checks one answer against what the benchmark knows about
// its request. It copies nothing from today's output: every expectation
// is an identity, a self-computed digest, or an earlier answer of the
// same run.
func checkReply(o *op, r *reply) error {
	if r.err != nil {
		return r.err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d: %.200s", r.status, r.body)
	}
	if r.result != o.wantResult {
		return fmt.Errorf("%s %q, want %q", serve.ResultHeader, r.result, o.wantResult)
	}
	if o.src != nil && !bytes.Equal(r.body, o.src.answer) {
		return fmt.Errorf("the %d-byte hit body differs from the same request's %d-byte miss body", len(r.body), len(o.src.answer))
	}
	switch o.class {
	case classSimulate, classStream:
		var resp serve.SimulateResponse
		if err := decodeStrict(r.body, &resp); err != nil {
			return fmt.Errorf("decoding the %d-byte answer: %w", len(r.body), err)
		}
		if o.class == classStream && r.fp != o.fp {
			return fmt.Errorf("trace fingerprint %q, want %q", r.fp, o.fp)
		}
		if resp.Trace != o.traceName || resp.References != uint64(o.records) {
			return fmt.Errorf("trace %s with %d references, want %s with %d", resp.Trace, resp.References, o.traceName, o.records)
		}
		cfgs, err := buildConfigs(o.specs)
		if err != nil {
			return err
		}
		if len(resp.Results) != len(cfgs) {
			return fmt.Errorf("%d results for %d configs", len(resp.Results), len(cfgs))
		}
		for i, res := range resp.Results {
			if res.Config != core.Describe(cfgs[i]) {
				return fmt.Errorf("result %d is for %q, want %q", i, res.Config, core.Describe(cfgs[i]))
			}
			if err := conserved(res.Stats, o.records); err != nil {
				return fmt.Errorf("result %d: %v", i, err)
			}
			if res.AMAT != res.Stats.AMAT() || res.MissRatio != res.Stats.MissRatio() {
				return fmt.Errorf("result %d: derived metrics disagree with its stats", i)
			}
		}
	case classSweep:
		var resp serve.SweepResponse
		if err := decodeStrict(r.body, &resp); err != nil {
			return fmt.Errorf("decoding the %d-byte answer: %w", len(r.body), err)
		}
		x, y, rows, err := sweepRows(o.sweep)
		if err != nil {
			return err
		}
		if resp.Trace != o.traceName || resp.XKey != x.Key || !reflect.DeepEqual(resp.XValues, x.Values) || resp.YKey != y.Key {
			return errors.New("sweep axes or trace differ from the request")
		}
		if len(resp.Rows) != len(rows) {
			return fmt.Errorf("%d sweep rows, want %d", len(resp.Rows), len(rows))
		}
		for i, row := range resp.Rows {
			if len(row) != len(x.Values) {
				return fmt.Errorf("sweep row %d has %d cells, want %d", i, len(row), len(x.Values))
			}
			for _, v := range row {
				if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
					return fmt.Errorf("sweep row %d holds %v", i, v)
				}
			}
		}
	}
	return nil
}

// corruptReply flips one digit of a measured answer: the first digit of
// its references count when it has one, else its last byte. The
// package's own test uses it to show the checks catch a wrong answer.
func corruptReply(r *reply) {
	b := append([]byte(nil), r.body...)
	if i := bytes.Index(b, []byte(`"references":`)); i >= 0 {
		j := i + len(`"references":`)
		b[j] = '0' + (b[j]-'0'+1)%10
	} else if len(b) > 0 {
		b[len(b)-1] ^= 1
	}
	r.body = b
}

// refCheck replays one config of a simulate or stream answer through the
// naive reference model (internal/cache/refmodel) on the same trace and
// compares every counter.
func refCheck(o *op, r *reply, pick int, scale workloads.Scale) error {
	var resp serve.SimulateResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return err
	}
	if pick >= len(resp.Results) {
		return fmt.Errorf("no result %d", pick)
	}
	cfg, err := buildConfig(o.specs[pick])
	if err != nil {
		return err
	}
	t, err := workloads.Trace(o.workload, scale, o.seed)
	if err != nil {
		return err
	}
	ref, err := refmodel.New(cfg)
	if err != nil {
		return err
	}
	for _, rec := range t.Records {
		ref.Access(rec)
	}
	if got, want := resp.Results[pick].Stats, ref.Stats(); !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s %s: served stats differ from the reference model:\nserved    %+v\nreference %+v",
			o.workload, core.Describe(cfg), got, want)
	}
	return nil
}

// postJSON sends one JSON request outside the measured phase and returns
// its body.
func postJSON(ctx context.Context, url string, v any) ([]byte, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	o := &op{class: classSimulate, body: body}
	r := send(ctx, http.DefaultClient, url, o)
	if r.err != nil {
		return nil, r.err
	}
	if r.status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %.200s", r.status, r.body)
	}
	return r.body, nil
}

// sweepCellCheck asks /v1/simulate for one sampled sweep cell with the
// same overrides and compares the metric.
func sweepCellCheck(ctx context.Context, base string, o *op, r *reply, rng *rand.Rand, scale string) error {
	var resp serve.SweepResponse
	if err := json.Unmarshal(r.body, &resp); err != nil {
		return err
	}
	x, y, _, err := sweepRows(o.sweep)
	if err != nil {
		return err
	}
	yi, xi := rng.Intn(len(y.Values)), rng.Intn(len(x.Values))
	cs := serve.ConfigSpec{Name: o.sweep.Config}
	if err := axisSpec(&cs, x.Key, x.Values[xi]); err != nil {
		return err
	}
	if y.Key != "" {
		if err := axisSpec(&cs, y.Key, y.Values[yi]); err != nil {
			return err
		}
	}
	req := serve.SimulateRequest{Configs: []serve.ConfigSpec{cs}}
	req.Workload, req.Scale, req.Seed = o.workload, scale, o.seed
	body, err := postJSON(ctx, base+"/v1/simulate", req)
	if err != nil {
		return err
	}
	var sim serve.SimulateResponse
	if err := json.Unmarshal(body, &sim); err != nil {
		return err
	}
	if len(sim.Results) != 1 {
		return fmt.Errorf("%d results for one config", len(sim.Results))
	}
	metric := o.sweep.Metric
	if metric == "" {
		metric = "amat"
	}
	want, err := core.MetricOf(metric, core.Result{Stats: sim.Results[0].Stats})
	if err != nil {
		return err
	}
	if got := resp.Rows[yi][xi]; got != want {
		return fmt.Errorf("sweep cell (%d,%d) = %v, /v1/simulate gives %v", yi, xi, got, want)
	}
	return nil
}

// streamJSONCheck asks /v1/simulate for the trace a streamed upload
// carried and requires the same answer.
func streamJSONCheck(ctx context.Context, base string, o *op, r *reply, scale string) error {
	req := serve.SimulateRequest{Configs: o.specs}
	req.Workload, req.Scale, req.Seed = o.workload, scale, o.seed
	body, err := postJSON(ctx, base+"/v1/simulate", req)
	if err != nil {
		return err
	}
	var a, b serve.SimulateResponse
	if err := json.Unmarshal(r.body, &a); err != nil {
		return err
	}
	if err := json.Unmarshal(body, &b); err != nil {
		return err
	}
	if !reflect.DeepEqual(a, b) {
		return fmt.Errorf("streamed answer for %s differs from the JSON answer", o.workload)
	}
	return nil
}

// streamQuery renders a stream op's configs as /v1/simulate/trace query
// parameters.
func streamQuery(names []string) string {
	q := make([]string, len(names))
	for i, n := range names {
		q[i] = "config=" + n
	}
	return "/v1/simulate/trace?" + strings.Join(q, "&")
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// traceSeed derives the i-th distinct trace seed of a run: distinct
// across i (up to 2^20 per run) and never 0 (which the service reads as
// the default seed 1).
func traceSeed(runSeed uint64, i int) uint64 {
	return (splitmix(runSeed)>>1|1<<62)&^(1<<20-1) | uint64(i)
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// removeAll deletes a scratch directory, reporting to the log on failure.
func removeAll(o *options, dir string) {
	if err := os.RemoveAll(dir); err != nil {
		o.logf("warning: removing %s: %v", dir, err)
	}
}
