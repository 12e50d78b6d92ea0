package main

import (
	"bytes"
	"context"
	"fmt"
	"net/url"
	"os"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	govhost "repro"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/export"
	"repro/internal/sched"
	"repro/internal/serve"
)

// tracedRun is the separate traced run. Whatever the workload, it
// drives the whole chain once with a span around every call into a
// layer, so each workload's traced run reports every per-layer metric:
//
//   - a study through internal/core, so NewEnv and Env.Run are timed
//     apart, exported to file A and indexed;
//   - a study through the facade with every report, exported to file B;
//   - a daemon boot on A, then, under a closed-loop reader, one
//     unmeasured reload to B and three traced reloads (A, B, A; on the
//     reload workload A and B traced, with an untraced reload of each
//     between them), each followed by a probe of its file's layers;
//   - a window of two closed-loop clients on the warm daemon.
//
// The workload's own operation is also run once untraced beside its
// traced runs; the difference is the tracing overhead.
func tracedRun(ctx context.Context, c *config) (*result, error) {
	tr := newTracer(fmt.Sprintf("%s-seed%d-%d", c.workload, c.seed, os.Getpid()))
	res := newResult()
	m := res.metrics
	var overhead float64 // seconds: traced minus untraced

	// Studies.
	phase := readRuntime()
	fileA, fileB := filepath.Join(c.work, "a.jsonl"), filepath.Join(c.work, "b.jsonl")
	dsA, err := coreStudy(ctx, c, fileA, tr, res)
	if err != nil {
		return nil, err
	}
	cfgB := c.studyConfig(c.seed + 1)
	var buf bytes.Buffer
	runtime.GC()
	root := tr.begin("bench.study", 0)
	st, err := studyOp(ctx, cfgB, &buf, tr, root.id)
	traced := root.end()
	if err != nil {
		return nil, err
	}
	res.count(studyHealthy(st))
	if err := os.WriteFile(fileB, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	if c.workload == "study" {
		want := buf.Bytes()
		var again bytes.Buffer
		runtime.GC()
		t0 := time.Now()
		st2, err := studyOp(ctx, cfgB, &again, nil, 0)
		if err != nil {
			return nil, err
		}
		overhead = (traced - time.Since(t0)).Seconds()
		res.count(studyHealthy(st2) && bytes.Equal(want, again.Bytes()))
		gcMetrics(m, phase)
	}
	m.set("govhost.run_ms", median(tr.durations("govhost.Run", 0))*1e3, "ms")
	m.set("report.render_all_ms", median(tr.durations("report.ReportAll", 0))*1e3, "ms")
	m.set("export.write_ms", median(tr.durations("export.WriteJSONL", 0))*1e3, "ms")
	m.set("export.bytes", float64(buf.Len()), "B")

	// Expected responses of both files, from the in-memory studies.
	snapA, err := serve.NewSnapshot(dsA, "expected")
	if err != nil {
		return nil, err
	}
	snapB, err := govhost.NewServeSnapshot(st, "expected")
	if err != nil {
		return nil, err
	}
	exp, keys, err := expectAll([]*serve.Snapshot{snapA, snapB})
	if err != nil {
		return nil, err
	}
	files := []dataFile{{fileA, snapA.Version()}, {fileB, snapB.Version()}}

	// Daemon boot on A, wired as cmd/govserve wires it: every load and
	// reload goes through govhost.ServeReloader, as in the untraced
	// workloads. The layers inside a load are timed by probing the same
	// file with their own functions after it.
	runtime.GC()
	boot := tr.begin("bench.boot", 0)
	d, err := bootDaemon(files[0], c.studyConfig(c.seed), traceHandler(tr))
	boot.end()
	if err != nil {
		return nil, err
	}
	defer d.stop()
	pr, err := probeReload(tr, files[0])
	if err != nil {
		return nil, err
	}
	res.count(pr.version == files[0].version)
	m.set("export.read_alloc_mb", float64(pr.readAlloc)/(1<<20), "MB")

	// Reloads under a reader.
	phase = readRuntime()
	var reloading atomic.Bool
	reader := newLoadClient(d.base, plan(c.seed, 1, keys, 4096), exp, files[0].version, tr, 1)
	defer reader.c.close()
	reader.record = &reloading
	stop := make(chan struct{})
	waitReader := sched.Workers(1, func(int) { reader.runUntil(stop) })
	admin := newClient(d.base)
	defer admin.close()
	reg0 := d.srv.Registry().Snapshot().Runtime.Serve
	reloads := 0
	doReload := func(f dataFile, traced bool) (time.Duration, error) {
		runtime.GC()
		tr.on.Store(traced)
		defer tr.on.Store(true)
		sp := tr.begin("bench.reload", 0)
		reloading.Store(traced)
		got, err := reload(admin, f.path)
		reloading.Store(false)
		dur := sp.end()
		reloads++
		res.count(err == nil && got == f.version && versionIs(admin, f.version))
		return dur, err
	}
	// The first reload after boot grows the heap to hold two snapshots;
	// it runs untraced and is not measured. Then reloads alternate A, B,
	// A, ..., and each traced one is followed by a probe of its file. On
	// the reload workload the pattern is traced, untraced, untraced,
	// traced, so each file is reloaded once each way and the overhead
	// compares reloads of the same file.
	if _, err := doReload(files[1], false); err != nil {
		return nil, err
	}
	pattern := []bool{true, true, true}
	if c.workload == "reload" {
		pattern = []bool{true, false, false, true}
	}
	var (
		reloadTimes, otherTimes []float64
		tracedBy, untracedBy    [2]time.Duration // by file
	)
	for i, traced := range pattern {
		f := files[i%2]
		dur, err := doReload(f, traced)
		if err != nil {
			return nil, err
		}
		if !traced {
			untracedBy[i%2] = dur
			continue
		}
		tracedBy[i%2] = dur
		if pr, err = probeReload(tr, f); err != nil {
			return nil, err
		}
		res.count(pr.version == f.version)
		reloadTimes = append(reloadTimes, dur.Seconds())
		otherTimes = append(otherTimes, (dur - pr.read - pr.snapshot).Seconds())
	}
	close(stop)
	waitReader()
	reg1 := d.srv.Registry().Snapshot().Runtime.Serve
	if c.workload == "reload" {
		overhead = (tracedBy[0] - untracedBy[0] + tracedBy[1] - untracedBy[1]).Seconds() / 2
		gcMetrics(m, phase)
	}
	m.set("export.read_ms", median(tr.durations("export.ReadJSONL", 0))*1e3, "ms")
	m.set("serve.snapshot_ms", median(tr.durations("serve.NewSnapshotWorkers", 0))*1e3, "ms")
	m.set("serve.version_ms", median(tr.durations("serve.DatasetVersion", 0))*1e3, "ms")
	m.set("analysis.index_ms", median(tr.durations("analysis.BuildIndexWorkers", 0))*1e3, "ms")
	m.set("govhost.reload_ms", median(reloadTimes)*1e3, "ms")
	m.set("govhost.reload_other_ms", median(otherTimes)*1e3, "ms")
	m.set("serve.read_during_reload_p50_us", median(micros(reader.lat)), "us")
	m.set("serve.cache_misses_per_reload", float64(reg1.CacheMisses-reg0.CacheMisses)/float64(reloads), "count")
	res.attempted += reader.sent
	res.failed += reader.failed

	// A cold render of every key, on a fresh snapshot of the last file
	// probed so the daemon's cache is left alone.
	fresh, err := serve.NewSnapshot(pr.ds, "cold")
	if err != nil {
		return nil, err
	}
	sp := tr.begin("serve.ColdRender", 0)
	for _, ks := range keys {
		for _, k := range ks {
			q, _ := url.ParseQuery(k.query) // parsed without error by expectAll
			fresh.Render(k.name, q)
		}
	}
	m.set("serve.cold_render_ms", float64(sp.end())/1e6, "ms")

	// Serve windows on the warm daemon.
	phase = readRuntime()
	clients := make([]*loadClient, 2)
	for i := range clients {
		clients[i] = newLoadClient(d.base, plan(c.seed, uint64(10+i), keys, 4096), exp, files[1].version, tr, i+1)
		defer clients[i].c.close()
	}
	win := max(c.seconds/10, 200*time.Millisecond)
	var untracedP50 float64
	if c.workload == "serve" {
		tr.on.Store(false)
		untracedP50 = median(measureWindow(clients, win).lat)
		tr.on.Store(true)
	}
	mark := tr.mark()
	reg0 = d.srv.Registry().Snapshot().Runtime.Serve
	ws := measureWindow(clients, win)
	reg1 = d.srv.Registry().Snapshot().Runtime.Serve
	for _, lc := range clients {
		res.attempted += lc.sent
		res.failed += lc.failed
	}
	if c.workload == "serve" {
		overhead = (median(ws.lat) - untracedP50) / 1e6
		gcMetrics(m, phase)
	}
	handler := tr.durations("serve.Handler", mark)
	m.set("serve.handler_p50_us", median(handler)*1e6, "us")
	m.set("serve.handler_p99_us", quantile(handler, 0.99)*1e6, "us")
	m.set("serve.request_p50_us", median(ws.lat), "us")
	m.set("serve.request_p99_us", quantile(ws.lat, 0.99), "us")
	hits, misses := reg1.CacheHits-reg0.CacheHits, reg1.CacheMisses-reg0.CacheMisses
	m.set("serve.cache_hit_ratio", float64(hits)/float64(hits+misses), "ratio")
	m.set("serve.not_modified_ratio", float64(ws.notModified)/float64(ws.n), "ratio")
	m.set("serve.bytes_per_req", float64(ws.bytes)/float64(ws.n), "B")
	m.set("bench.trace_overhead_ms", overhead*1e3, "ms")
	res.detail["serve_window_requests"] = ws.n

	if err := d.stop(); err != nil {
		return nil, err
	}
	path := filepath.Join(c.out, fmt.Sprintf("trace-%s-seed%d.json", c.workload, c.seed))
	if err := tr.writeChrome(path); err != nil {
		return nil, err
	}
	res.detail["trace_file"] = path
	res.trace = tr
	return res, nil
}

// coreStudy runs the study for c.seed through internal/core — the same
// work govhost.Run does, with NewEnv and Env.Run timed apart — then
// exports it to path and builds its analysis index.
func coreStudy(ctx context.Context, c *config, path string, tr *tracer, res *result) (*dataset.Dataset, error) {
	m := res.metrics
	runtime.GC()
	root := tr.begin("bench.study", 0)
	defer root.end()
	sp := tr.begin("core.NewEnv", root.id)
	env := core.NewEnv(core.Config{Seed: c.seed, Scale: c.scale, Countries: c.countries})
	m.set("core.newenv_ms", float64(sp.end())/1e6, "ms")
	a0 := readRuntime().allocBytes
	sp = tr.begin("core.Env.Run", root.id)
	ds, err := env.Run(ctx)
	m.set("core.run_ms", float64(sp.end())/1e6, "ms")
	m.set("core.run_alloc_mb", float64(readRuntime().allocBytes-a0)/(1<<20), "MB")
	if err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	a0 = readRuntime().allocBytes
	sp = tr.begin("export.WriteJSONL", root.id)
	err = export.WriteJSONL(f, ds)
	sp.end()
	m.set("export.write_alloc_mb", float64(readRuntime().allocBytes-a0)/(1<<20), "MB")
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	sp = tr.begin("analysis.BuildIndexWorkers", root.id)
	analysis.BuildIndexWorkers(ds, 8)
	sp.end()

	snap := env.Metrics().Snapshot()
	det, rt := snap.Deterministic, snap.Runtime
	res.count(det.Pipeline.Failures == 0 && det.Pipeline.CountriesFailed == 0)
	m.set("core.stage_crawl_busy_ms", float64(rt.Stages["crawl"].Sum)/1e6, "ms")
	m.set("core.stage_classify_busy_ms", float64(rt.Stages["classify"].Sum)/1e6, "ms")
	m.set("core.stage_annotate_busy_ms", float64(rt.Stages["annotate"].Sum)/1e6, "ms")
	var slowest time.Duration
	for _, ct := range rt.Countries {
		slowest = max(slowest, ct.Vantage+ct.Crawl+ct.Classify+ct.Annotate)
	}
	m.set("core.slowest_country_ms", float64(slowest)/1e6, "ms")
	m.set("sched.queue_wait_ms", float64(rt.Sched.QueueWait.Sum)/1e6, "ms")
	m.set("crawler.fetch_attempts", float64(det.Fetch.Attempts), "count")
	m.set("crawler.frontier_admitted", float64(det.Crawl.FrontierAdmitted), "count")
	m.set("core.records", float64(det.Pipeline.Records), "count")
	m.set("core.rescache_hit_ratio", float64(det.Cache.Hits)/float64(det.Cache.Lookups), "ratio")
	geoHits := det.Geo.Unicast.Hits + det.Geo.Anycast.Hits
	geoLookups := det.Geo.Unicast.Lookups + det.Geo.Anycast.Lookups
	m.set("probing.geo_hit_ratio", float64(geoHits)/float64(geoLookups), "ratio")
	return ds, nil
}

// probe is what probeReload measured on one file.
type probe struct {
	read, snapshot time.Duration
	readAlloc      uint64 // bytes allocated during the decode
	ds             *dataset.Dataset
	version        string
}

// probeReload times, on f, the calls into each layer that a jsonl
// reload makes inside govhost.ServeReloader: the decode and the
// snapshot build, then the version hash and the index build that the
// snapshot build runs inside it, as root spans of their own.
func probeReload(tr *tracer, f dataFile) (probe, error) {
	var p probe
	file, err := os.Open(f.path)
	if err != nil {
		return p, err
	}
	defer file.Close()
	a0 := readRuntime().allocBytes
	sp := tr.begin("export.ReadJSONL", 0)
	ds, err := export.ReadJSONL(file)
	p.read = sp.end()
	p.readAlloc = readRuntime().allocBytes - a0
	if err != nil {
		return p, err
	}
	ds.FillTotals()
	sp = tr.begin("serve.NewSnapshotWorkers", 0)
	snap, err := serve.NewSnapshotWorkers(ds, "probe:"+f.path, 0)
	p.snapshot = sp.end()
	if err != nil {
		return p, err
	}
	p.ds, p.version = ds, snap.Version()
	sp = tr.begin("serve.DatasetVersion", 0)
	_, err = serve.DatasetVersion(ds)
	sp.end()
	sp = tr.begin("analysis.BuildIndexWorkers", 0)
	analysis.BuildIndexWorkers(ds, 8)
	sp.end()
	return p, err
}

// gcMetrics reports the collector's work since from.
func gcMetrics(m metricSet, from runtimeSample) {
	now := readRuntime()
	m.set("runtime.gc_cycles", float64(now.gcCycles-from.gcCycles), "count")
	m.set("runtime.gc_cpu_ms", (now.gcCPU-from.gcCPU)*1e3, "ms")
}
