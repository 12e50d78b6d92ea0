package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"runtime"
	"sync/atomic"
	"time"

	govhost "repro"
	"repro/internal/sched"
)

// setups is how many times a workload repeats its set-up, each after a
// full collection; setup_s is the median.
const setups = 5

// config is one benchmark run's settings.
type config struct {
	workload  string
	seed      int64
	seconds   time.Duration
	trace     bool
	scale     float64
	countries []string
	work      string // scratch directory for this run's files
	out       string // directory the trace is written to

	// tamper, when set, alters the inputs' expected answers before
	// the daemon workloads run; the tests use it to show a wrong
	// answer is counted as a failure.
	tamper func(expectations, []dataFile)
}

// result is what a run reports.
type result struct {
	attempted, failed int
	metrics           metricSet
	detail            map[string]any // context printed beside the metrics
	trace             *tracer        // the traced run's spans, for the self-time table
}

func (r *result) count(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

func newResult() *result { return &result{metrics: metricSet{}, detail: map[string]any{}} }

// studyWorkload repeats the full pipeline at one seed. Set-up runs the
// study too; the first export is the reference every later repetition
// must reproduce byte for byte.
func studyWorkload(ctx context.Context, c *config) (*result, error) {
	res := newResult()
	base := liveHeap()
	cfg := c.studyConfig(c.seed)
	var (
		buf        bytes.Buffer
		ref        [32]byte
		setupTimes []time.Duration
		st         *govhost.Study
		err        error
	)
	check := func(st *govhost.Study) bool { return studyHealthy(st) && sha256.Sum256(buf.Bytes()) == ref }
	for i := 0; i < setups; i++ {
		runtime.GC()
		t0 := time.Now()
		if st, err = studyOp(ctx, cfg, &buf, nil, 0); err != nil {
			return nil, err
		}
		setupTimes = append(setupTimes, time.Since(t0))
		if i == 0 {
			ref = sha256.Sum256(buf.Bytes())
		}
		res.count(check(st))
	}
	res.detail["export_bytes"] = buf.Len()

	var ops costs
	loop := time.Now()
	for len(ops.wall) < 3 || time.Since(loop) < c.seconds {
		st = nil // so the previous study is not live during the next
		runtime.GC()
		u := readUsage()
		if st, err = studyOp(ctx, cfg, &buf, nil, 0); err != nil {
			return nil, err
		}
		ops.add(u.since())
		res.count(check(st))
	}
	ops.opMetrics(res.metrics)
	buf = bytes.Buffer{} // so only the last study stays live
	res.metrics.set("live_heap_mb", float64(liveHeap()-base)/(1<<20), "MB")
	runtime.KeepAlive(st)
	res.metrics.set("setup_s", median(seconds(setupTimes)), "s")
	res.detail["ops"] = len(ops.wall)
	return res, nil
}

// bootMedian boots the daemon on f once per set-up, keeps the last one
// and returns it with the median boot time.
func bootMedian(c *config, f dataFile) (*daemon, float64, error) {
	var times []time.Duration
	var d *daemon
	for i := 0; i < setups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, 0, err
			}
		}
		runtime.GC()
		t0 := time.Now()
		var err error
		if d, err = bootDaemon(f, c.studyConfig(c.seed), nil); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0))
	}
	return d, median(seconds(times)), nil
}

// reloadWorkload swaps a daemon between two exports (seeds s and s+1)
// with POST /admin/reload while one closed-loop reader requests the
// serve mix. Each reload really changes the version, so the response
// cache goes cold each time.
func reloadWorkload(ctx context.Context, c *config) (*result, error) {
	files, exp, keys, err := prepareFiles(ctx, c, []int64{c.seed, c.seed + 1})
	if err != nil {
		return nil, err
	}
	if c.tamper != nil {
		c.tamper(exp, files)
	}
	res := newResult()
	base := liveHeap()
	d, setup, err := bootMedian(c, files[0])
	if err != nil {
		return nil, err
	}
	defer d.stop()
	res.metrics.set("setup_s", setup, "s")

	var reloading atomic.Bool
	reader := newLoadClient(d.base, plan(c.seed, 1, keys, 4096), exp, files[0].version, nil, 1)
	defer reader.c.close()
	reader.record = &reloading
	stop := make(chan struct{})
	waitReader := sched.Workers(1, func(int) { reader.runUntil(stop) })

	admin := newClient(d.base)
	defer admin.close()
	var ops costs
	loop := time.Now()
	for i := 1; len(ops.wall) < 3 || time.Since(loop) < c.seconds; i++ {
		f := files[i%2]
		runtime.GC()
		u := readUsage()
		reloading.Store(true)
		got, rerr := reload(admin, f.path)
		reloading.Store(false)
		ops.add(u.since())
		res.count(rerr == nil && got == f.version && versionIs(admin, f.version))
	}
	close(stop)
	waitReader()

	ops.opMetrics(res.metrics)
	res.metrics.set("live_heap_mb", float64(liveHeap()-base)/(1<<20), "MB")
	res.attempted += reader.sent
	res.failed += reader.failed
	res.detail["ops"] = len(ops.wall)
	if len(reader.lat) > 0 {
		res.detail["reload_read_p50_us"] = median(micros(reader.lat))
	}
	res.detail["reload_read_samples"] = len(reader.lat)
	res.detail["reader_requests"] = reader.sent
	return res, d.stop()
}

// reload posts /admin/reload for path and returns the version the
// daemon reports it swapped to.
func reload(admin *client, path string) (string, error) {
	r, err := admin.do(http.MethodPost, "/admin/reload?jsonl="+url.QueryEscape(path), "", nil)
	if err != nil {
		return "", err
	}
	if r.status != http.StatusOK {
		return "", fmt.Errorf("reload %s: status %d: %s", path, r.status, r.body)
	}
	var v struct{ Version string }
	err = json.Unmarshal(r.body, &v)
	return v.Version, err
}

// versionIs reports whether /version claims version.
func versionIs(admin *client, version string) bool {
	var v struct{ Version string }
	return admin.getJSON("/version", &v) == nil && v.Version == version
}

// serveWorkload drives a warm daemon with two closed-loop keep-alive
// clients over loopback.
func serveWorkload(ctx context.Context, c *config) (*result, error) {
	files, exp, keys, err := prepareFiles(ctx, c, []int64{c.seed})
	if err != nil {
		return nil, err
	}
	if c.tamper != nil {
		c.tamper(exp, files)
	}
	res := newResult()
	base := liveHeap()
	d, setup, err := bootMedian(c, files[0])
	if err != nil {
		return nil, err
	}
	defer d.stop()
	res.metrics.set("setup_s", setup, "s")

	clients := make([]*loadClient, 2)
	for i := range clients {
		clients[i] = newLoadClient(d.base, plan(c.seed, uint64(10+i), keys, 4096), exp, files[0].version, nil, i+1)
		defer clients[i].c.close()
	}
	// Warm the cache and both connections, then measure in windows
	// and report the median window, so a short stall elsewhere on the
	// host moves one window, not the result.
	window(clients, c.seconds/10)
	runtime.GC()
	const windows = 10
	var all, p50, rps, cpu, alloc []float64
	requests := 0
	for i := 0; i < windows; i++ {
		ws := measureWindow(clients, c.seconds/windows)
		all = append(all, ws.lat...)
		p50 = append(p50, median(ws.lat))
		rps = append(rps, float64(ws.n)/ws.cost.wall.Seconds())
		cpu = append(cpu, ws.cost.cpu.Seconds()/float64(ws.n))
		alloc = append(alloc, float64(ws.cost.alloc)/float64(ws.n))
		requests += ws.n
	}
	res.metrics.set("op_ms", median(p50)/1e3, "ms")
	res.metrics.set("ops_per_s", median(rps), "1/s")
	res.metrics.set("op_cpu_ms", median(cpu)*1e3, "ms")
	res.metrics.set("op_alloc_kb", median(alloc)/1024, "KB")
	res.detail["requests"] = requests
	res.detail["p99_us"] = quantile(all, 0.99)
	res.detail["samples_beyond_p99"] = len(all) / 100
	res.metrics.set("live_heap_mb", float64(liveHeap()-base)/(1<<20), "MB")
	for _, lc := range clients {
		res.attempted += lc.sent
		res.failed += lc.failed
	}
	return res, d.stop()
}

// window runs every client closed-loop for d.
func window(clients []*loadClient, d time.Duration) {
	stop := make(chan struct{})
	wait := sched.Workers(len(clients), func(i int) { clients[i].runUntil(stop) })
	time.Sleep(d)
	close(stop)
	wait()
}

// windowStats is one measuring window of closed-loop clients.
type windowStats struct {
	lat         []float64 // request latencies, µs
	n           int       // requests completed
	notModified int
	bytes       int64
	cost        cost
}

// measureWindow runs the clients for d and gathers what they did.
func measureWindow(clients []*loadClient, d time.Duration) windowStats {
	var ws windowStats
	for _, lc := range clients {
		lc.reset()
		ws.n -= lc.sent
	}
	u := readUsage()
	window(clients, d)
	ws.cost = u.since()
	for _, lc := range clients {
		ws.lat = append(ws.lat, micros(lc.lat)...)
		ws.n += lc.sent
		ws.notModified += lc.notModified
		ws.bytes += lc.bytes
	}
	return ws
}

// micros converts durations to float microseconds.
func micros(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e3
	}
	return out
}

var errUnknownWorkload = errors.New("unknown workload")

func runWorkload(ctx context.Context, c *config) (*result, error) {
	if c.trace {
		return tracedRun(ctx, c)
	}
	switch c.workload {
	case "study":
		return studyWorkload(ctx, c)
	case "reload":
		return reloadWorkload(ctx, c)
	case "serve":
		return serveWorkload(ctx, c)
	}
	return nil, fmt.Errorf("%w %q", errUnknownWorkload, c.workload)
}
