package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one softcache-served process of the fleet.
type daemon struct {
	name string // "router", "s0", "s1"
	url  string
	cmd  *exec.Cmd
	done chan error
}

// fleet is a router in front of two shards, each shard with a fresh
// result-cache directory and otherwise default flags. Every request goes
// through the router.
type fleet struct {
	router *daemon
	shards []*daemon
}

func (f *fleet) all() []*daemon { return append([]*daemon{f.router}, f.shards...) }

// shardURL maps a shard's X-Softcache-Shard label to its base URL.
func (f *fleet) shardURL(label string) (string, bool) {
	for _, s := range f.shards {
		if s.name == label {
			return s.url, true
		}
	}
	return "", false
}

// The shards listen on fixed loopback ports. The router's ring hashes
// the shards' URLs, so fixed ports place the same keys on the same shard
// in every run; with ports the OS picks, a fixed pool lands differently
// each run and the fleet's memory with it. The base sits below Linux's
// ephemeral range.
const (
	shardPortBase  = 24200
	shardPortTries = 100
)

// shardPorts returns the base port pair, or the first free pair after it
// when the base is taken.
func shardPorts() ([2]int, error) {
	for p := shardPortBase; p < shardPortBase+2*shardPortTries; p += 2 {
		if portFree(p) && portFree(p+1) {
			return [2]int{p, p + 1}, nil
		}
	}
	return [2]int{}, fmt.Errorf("no free shard port pair from %d", shardPortBase)
}

func portFree(port int) bool {
	ln, err := net.Listen("tcp", fmt.Sprintf("127.0.0.1:%d", port))
	if err != nil {
		return false
	}
	ln.Close()
	return true
}

// startFleet launches two shards on the given ports and a router over
// them, and waits until every daemon answers /healthz.
func startFleet(ctx context.Context, served, dir string, ports [2]int, stderr io.Writer) (*fleet, error) {
	f := &fleet{}
	for i, port := range ports {
		name := fmt.Sprintf("s%d", i)
		cacheDir := filepath.Join(dir, name+"-results")
		if err := os.MkdirAll(cacheDir, 0o755); err != nil {
			f.stop()
			return nil, err
		}
		d, err := startDaemon(ctx, served, name, dir, stderr,
			"-addr", fmt.Sprintf("127.0.0.1:%d", port), "-shard", name, "-result-cache-dir", cacheDir)
		if err != nil {
			f.stop()
			return nil, err
		}
		f.shards = append(f.shards, d)
	}
	urls := make([]string, len(f.shards))
	for i, s := range f.shards {
		urls[i] = s.url
	}
	r, err := startDaemon(ctx, served, "router", dir, stderr,
		"-addr", "127.0.0.1:0", "-route", strings.Join(urls, ","))
	if err != nil {
		f.stop()
		return nil, err
	}
	f.router = r
	for _, d := range f.all() {
		if err := waitHealthy(ctx, d); err != nil {
			f.stop()
			return nil, err
		}
	}
	return f, nil
}

// startDaemon starts one softcache-served process whose temporary files
// (the spool of repeated uploads) go under dir.
func startDaemon(ctx context.Context, served, name, dir string, stderr io.Writer, args ...string) (*daemon, error) {
	cmd := exec.Command(served, args...)
	cmd.Env = append(os.Environ(), "TMPDIR="+dir)
	cmd.Stderr = stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	d := &daemon{name: name, cmd: cmd, done: make(chan error, 1)}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "listening on "); ok {
				select {
				case addr <- rest:
				default:
				}
			}
		}
		d.done <- cmd.Wait()
	}()
	select {
	case d.url = <-addr:
		return d, nil
	case err := <-d.done:
		d.done <- err
		return nil, fmt.Errorf("%s exited before listening: %v", name, err)
	case <-time.After(10 * time.Second):
	case <-ctx.Done():
	}
	d.kill()
	return nil, fmt.Errorf("%s did not start listening", name)
}

func waitHealthy(ctx context.Context, d *daemon) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) && ctx.Err() == nil {
		resp, err := client.Get(d.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s never became healthy", d.name)
}

// kill stops the daemon hard and waits for it to exit.
func (d *daemon) kill() {
	d.cmd.Process.Kill()
	<-d.done
}

// stop drains every daemon with SIGTERM, router first, and waits for
// each to exit; a daemon that will not drain within 15s is killed.
func (f *fleet) stop() error {
	var errs []error
	for _, d := range f.all() {
		if d == nil {
			continue
		}
		d.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case err := <-d.done:
			if err != nil {
				errs = append(errs, fmt.Errorf("%s: %v", d.name, err))
			}
		case <-time.After(15 * time.Second):
			d.cmd.Process.Kill()
			<-d.done
			errs = append(errs, fmt.Errorf("%s did not drain", d.name))
		}
	}
	return errors.Join(errs...)
}

// scrape reads a daemon's /metrics into series -> value (the series key
// keeps its labels, e.g. `softcache_requests_total{endpoint="sweep"}`).
func scrape(d *daemon) (map[string]float64, error) {
	resp, err := http.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s /metrics: %s", d.name, resp.Status)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// fleetMetrics is one scrape of every daemon.
type fleetMetrics struct {
	router map[string]float64
	shards []map[string]float64
}

func (f *fleet) scrapeAll() (*fleetMetrics, error) {
	fm := &fleetMetrics{}
	var err error
	if fm.router, err = scrape(f.router); err != nil {
		return nil, err
	}
	for _, s := range f.shards {
		m, err := scrape(s)
		if err != nil {
			return nil, err
		}
		fm.shards = append(fm.shards, m)
	}
	return fm, nil
}

// shardSum sums one series over the shards.
func (fm *fleetMetrics) shardSum(series string) float64 {
	sum := 0.0
	for _, m := range fm.shards {
		sum += m[series]
	}
	return sum
}

// delta returns after - before for a shard-summed series.
func shardDelta(before, after *fleetMetrics, series string) float64 {
	return after.shardSum(series) - before.shardSum(series)
}

func routerDelta(before, after *fleetMetrics, series string) float64 {
	return after.router[series] - before.router[series]
}

// cpuTicks returns utime+stime of every daemon, in clock ticks, from
// /proc/<pid>/stat.
func (f *fleet) cpuTicks() (int64, error) {
	var total int64
	for _, d := range f.all() {
		t, err := procCPUTicks(d.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		total += t
	}
	return total, nil
}

func procCPUTicks(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	fields := strings.Fields(s[i+1:])
	// fields[0] is the state (field 3); utime and stime are fields 14, 15.
	if len(fields) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(fields[11], 10, 64)
	st, err2 := strconv.ParseInt(fields[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return ut + st, nil
}

// clockTick is USER_HZ, the unit of /proc/<pid>/stat CPU times; Linux
// fixes it at 100 for every user-space ABI.
const clockTick = 10 * time.Millisecond

// peakRSSMB sums VmHWM over the fleet's daemons, in MiB.
func (f *fleet) peakRSSMB() (float64, error) {
	total := 0.0
	for _, d := range f.all() {
		v, err := vmHWM(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		total += v
	}
	return total, nil
}

// vmHWM reads the VmHWM line of a /proc status file, in MiB.
func vmHWM(path string) (float64, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in %s", path)
}

// machineCPU returns the machine's steal and total CPU ticks from
// /proc/stat (0, 0 when unreadable). Steal is time the hypervisor ran
// something else while this machine's CPUs had work: a run with a high
// steal share measured a slower machine, not a slower program.
func machineCPU() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}
