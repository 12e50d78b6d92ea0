package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	govhost "repro"
	"repro/internal/sched"
	"repro/internal/serve"
)

// daemon is an in-process govserve: a serve.Server on a loopback
// listener. With a nil wrap it serves exactly as cmd/govserve does;
// otherwise its handler is wrapped (the traced run's middleware).
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	errc chan error
	wait func() // returns once the serving goroutine has exited
	base string

	once    sync.Once
	stopErr error
}

func startDaemon(snap *serve.Snapshot, reloader serve.ReloadFunc, wrap func(http.Handler) http.Handler) (*daemon, error) {
	srv := serve.New(serve.Config{Snapshot: snap, Reloader: reloader})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: srv, errc: make(chan error, 1), base: "http://" + ln.Addr().String()}
	if wrap == nil {
		d.wait = sched.Workers(1, func(int) { d.errc <- srv.Serve(ln) })
		return d, nil
	}
	d.hs = &http.Server{Handler: wrap(srv.Handler())}
	d.wait = sched.Workers(1, func(int) {
		err := d.hs.Serve(ln)
		if errors.Is(err, http.ErrServerClosed) {
			err = nil
		}
		d.errc <- err
	})
	return d, nil
}

// stop drains the daemon and waits for its serving goroutine. Later
// calls return the first call's result.
func (d *daemon) stop() error {
	d.once.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		var err error
		if d.hs != nil {
			err = d.hs.Shutdown(ctx)
		}
		err = errors.Join(err, d.srv.Shutdown(ctx))
		d.wait()
		d.stopErr = errors.Join(err, <-d.errc)
	})
	return d.stopErr
}

// bootDaemon is one daemon set-up as cmd/govserve -from-jsonl does
// it: load the export, start serving, and wait until /healthz answers
// with the file's version. wrap is passed to startDaemon.
func bootDaemon(f dataFile, cfg govhost.Config, wrap func(http.Handler) http.Handler) (*daemon, error) {
	snap, err := govhost.ServeSnapshotFromJSONL(f.path)
	if err != nil {
		return nil, err
	}
	d, err := startDaemon(snap, govhost.ServeReloader(cfg), wrap)
	if err != nil {
		return nil, err
	}
	if err := d.awaitVersion(f.version); err != nil {
		return nil, errors.Join(err, d.stop())
	}
	return d, nil
}

// awaitVersion checks that /healthz reports version.
func (d *daemon) awaitVersion(version string) error {
	c := newClient(d.base)
	defer c.close()
	var h struct{ Status, Version string }
	if err := c.getJSON("/healthz", &h); err != nil {
		return err
	}
	if h.Status != "ok" || h.Version != version {
		return fmt.Errorf("daemon reports %s at version %s, want ok at %s", h.Status, h.Version, version)
	}
	return nil
}

// client is one keep-alive HTTP connection to the daemon.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	tr := &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true}
	return &client{hc: &http.Client{Transport: tr, Timeout: time.Minute}, base: base}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// reply is one response; body aliases the client's buffer and is
// valid until the client's next request.
type reply struct {
	status  int
	version string
	etag    string
	body    []byte
}

// spanHeader carries the client's span id and lane to the traced
// daemon, so a request's client and handler spans are linked.
const spanHeader = "X-Bench-Span"

func (c *client) do(method, path, ifNoneMatch string, sp *open) (reply, error) {
	req, err := http.NewRequest(method, c.base+path, nil)
	if err != nil {
		return reply{}, err
	}
	if ifNoneMatch != "" {
		req.Header.Set("If-None-Match", ifNoneMatch)
	}
	if sp != nil && sp.t != nil {
		req.Header.Set(spanHeader, strconv.FormatInt(sp.id, 10)+":"+strconv.Itoa(sp.lane))
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	c.buf.Reset()
	if _, err := c.buf.ReadFrom(resp.Body); err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, version: resp.Header.Get("X-Dataset-Version"),
		etag: resp.Header.Get("ETag"), body: c.buf.Bytes()}, nil
}

func (c *client) getJSON(path string, v any) error {
	r, err := c.do(http.MethodGet, path, "", nil)
	if err != nil {
		return err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, r.status)
	}
	return json.Unmarshal(r.body, v)
}

// traceHandler wraps the daemon's handler in a span for each request
// that carries a client span, parented to it.
func traceHandler(tr *tracer) func(http.Handler) http.Handler {
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			id, ln, ok := strings.Cut(r.Header.Get(spanHeader), ":")
			if !ok {
				h.ServeHTTP(w, r)
				return
			}
			parent, _ := strconv.ParseInt(id, 10, 64)
			lane, _ := strconv.Atoi(ln)
			sp := tr.beginLane("serve.Handler", parent, lane)
			h.ServeHTTP(w, r)
			sp.end()
		})
	}
}

// check reports whether r is a correct answer to the request for key
// that carried ifNoneMatch: a 304 must answer a tag that matches the
// version the response claims, anything else must byte-equal what
// that version renders.
func (e expectations) check(key, ifNoneMatch string, r reply) bool {
	want, ok := e[r.version][key]
	if !ok {
		return false
	}
	if r.status == http.StatusNotModified {
		return ifNoneMatch != "" && ifNoneMatch == want.tag && r.etag == want.tag && len(r.body) == 0
	}
	if r.status == http.StatusOK && r.etag != want.tag {
		return false
	}
	return r.status == want.status && bytes.Equal(r.body, want.body)
}

// traceEvery is the request sampling period of a traced client: one
// request in traceEvery gets client and handler spans, which keeps a
// traced run's spans in the tens of thousands.
const traceEvery = 16

// loadClient is one closed-loop reader: it sends its planned requests
// in turn, each only after the previous one completed, and checks
// every answer.
type loadClient struct {
	c    *client
	reqs []request
	exp  expectations
	tr   *tracer
	lane int
	// record, when set, limits latency samples to requests sent while
	// it is true.
	record *atomic.Bool

	next        int
	lastVersion string
	lat         []time.Duration
	sent        int
	failed      int
	notModified int
	bytes       int64
}

func newLoadClient(base string, reqs []request, exp expectations, version string, tr *tracer, lane int) *loadClient {
	return &loadClient{c: newClient(base), reqs: reqs, exp: exp, tr: tr, lane: lane,
		lastVersion: version}
}

// one sends the next planned request and accounts for it.
func (lc *loadClient) one() {
	rq := lc.reqs[lc.next%len(lc.reqs)]
	lc.next++
	tag := ""
	if rq.cond {
		tag = lc.exp[lc.lastVersion][rq.key].tag
	}
	rec := lc.record == nil || lc.record.Load()
	var tr *tracer
	if lc.next%traceEvery == 0 {
		tr = lc.tr
	}
	sp := tr.beginLane("client.request", 0, lc.lane)
	r, err := lc.c.do(http.MethodGet, rq.path, tag, sp)
	d := sp.end()
	lc.sent++
	if err != nil || !lc.exp.check(rq.key, tag, r) {
		lc.failed++
	}
	if err != nil {
		return
	}
	if r.status == http.StatusNotModified {
		lc.notModified++
	}
	lc.bytes += int64(len(r.body))
	if rec {
		lc.lat = append(lc.lat, d)
	}
	if r.version != "" {
		lc.lastVersion = r.version
	}
}

// runUntil sends requests until stop is closed.
func (lc *loadClient) runUntil(stop <-chan struct{}) {
	for {
		select {
		case <-stop:
			return
		default:
			lc.one()
		}
	}
}

// reset starts a new measuring window: it forgets the latency
// samples and per-window tallies but keeps sent and failed, which
// count every request of the run.
func (lc *loadClient) reset() {
	lc.lat = lc.lat[:0]
	lc.notModified, lc.bytes = 0, 0
}
