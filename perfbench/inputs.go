package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand/v2"
	"net/url"
	"os"
	"path/filepath"
	"sort"

	govhost "repro"
	"repro/internal/serve"
)

// studyConfig is the study every workload runs: the full panel (or
// the given subset) at the given scale, faults off, default
// concurrency.
func (c *config) studyConfig(seed int64) govhost.Config {
	return govhost.Config{Seed: seed, Scale: c.scale, Countries: c.countries}
}

// studyOp runs one study the way the govhost command does: the whole
// pipeline, every report, then the JSONL export into buf.
func studyOp(ctx context.Context, cfg govhost.Config, buf *bytes.Buffer, tr *tracer, parent int64) (*govhost.Study, error) {
	sp := tr.begin("govhost.Run", parent)
	st, err := govhost.Run(ctx, cfg)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("report.ReportAll", parent)
	rep := st.ReportAll()
	sp.end()
	if rep == "" {
		return nil, fmt.Errorf("study seed %d rendered an empty report", cfg.Seed)
	}
	buf.Reset()
	sp = tr.begin("export.WriteJSONL", parent)
	err = st.ExportJSONL(buf)
	sp.end()
	return st, err
}

// studyHealthy reports whether a study ran without pipeline failures
// or failed countries.
func studyHealthy(st *govhost.Study) bool {
	snap, ok := st.Metrics()
	if !ok {
		return false
	}
	p := snap.Deterministic.Pipeline
	return p.Failures == 0 && p.CountriesFailed == 0
}

// dataFile is one study export on disk and the version a daemon
// serving it must claim.
type dataFile struct {
	path    string
	version string
}

// prepareFiles runs one study per seed, writes each export to the work
// directory and renders the expected response of every request key
// from the in-memory studies, so the expected bodies never go through
// the JSONL decode the daemon uses.
func prepareFiles(ctx context.Context, c *config, seeds []int64) ([]dataFile, expectations, map[string][]reqKey, error) {
	var (
		files []dataFile
		snaps []*serve.Snapshot
		buf   bytes.Buffer
	)
	for _, seed := range seeds {
		st, err := studyOp(ctx, c.studyConfig(seed), &buf, nil, 0)
		if err != nil {
			return nil, nil, nil, err
		}
		if !studyHealthy(st) {
			return nil, nil, nil, fmt.Errorf("input study seed %d had failures", seed)
		}
		path := filepath.Join(c.work, fmt.Sprintf("study-%d.jsonl", seed))
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			return nil, nil, nil, err
		}
		snap, err := govhost.NewServeSnapshot(st, "expected")
		if err != nil {
			return nil, nil, nil, err
		}
		files = append(files, dataFile{path: path, version: snap.Version()})
		snaps = append(snaps, snap)
	}
	exp, keys, err := expectAll(snaps)
	return files, exp, keys, err
}

// expectAll renders the expected response of every request key from
// each snapshot. The keys cover the countries all snapshots share.
func expectAll(snaps []*serve.Snapshot) (expectations, map[string][]reqKey, error) {
	shared := map[string]int{}
	for _, snap := range snaps {
		for _, code := range snap.Countries() {
			shared[code]++
		}
	}
	var common []string
	for code, n := range shared {
		if n == len(snaps) {
			common = append(common, code)
		}
	}
	sort.Strings(common)
	keys := requestKeys(common)
	exp := expectations{}
	for _, snap := range snaps {
		bodies := map[string]expected{}
		for _, ks := range keys {
			for _, k := range ks {
				q, err := url.ParseQuery(k.query)
				if err != nil {
					return nil, nil, err
				}
				body, status := snap.Render(k.name, q)
				bodies[k.String()] = expected{body: body, status: status, tag: serve.ETagFor(snap.Version(), k.name, q)}
			}
		}
		exp[snap.Version()] = bodies
	}
	return exp, keys, nil
}

// expected is what a correct daemon answers for one request key.
type expected struct {
	body   []byte
	status int
	tag    string
}

// expectations maps a dataset version to its expected responses.
type expectations map[string]map[string]expected

// reqKey is one distinct response: an endpoint and its query.
type reqKey struct {
	name  string
	query string
}

func (k reqKey) String() string {
	if k.query == "" {
		return k.name
	}
	return k.name + "?" + k.query
}

// requestKeys lists every distinct response the daemon serves for the
// given countries: each endpoint, both kind values where an endpoint
// takes one, and every country code.
func requestKeys(countries []string) map[string][]reqKey {
	byName := map[string][]reqKey{}
	for _, name := range serve.EndpointNames() {
		switch name {
		case "fig9", "matrix":
			for _, kind := range []string{"registration", "location"} {
				byName[name] = append(byName[name], reqKey{name, "kind=" + kind})
			}
		case "country":
			for _, code := range countries {
				byName[name] = append(byName[name], reqKey{name, "code=" + code})
			}
		default:
			byName[name] = []reqKey{{name: name}}
		}
	}
	return byName
}

// request is one planned client request.
type request struct {
	key  string
	path string
	cond bool // send If-None-Match with the tag of the last version seen
}

// plan draws n requests from the seeded mix: an endpoint uniformly
// among all endpoints, then one of its keys uniformly; one request in
// four is conditional.
func plan(seed int64, stream uint64, keys map[string][]reqKey, n int) []request {
	names := serve.EndpointNames()
	r := rand.New(rand.NewPCG(uint64(seed), stream))
	out := make([]request, n)
	for i := range out {
		ks := keys[names[r.IntN(len(names))]]
		k := ks[r.IntN(len(ks))]
		path := "/api/" + k.name
		if k.query != "" {
			path += "?" + k.query
		}
		out[i] = request{key: k.String(), path: path, cond: r.IntN(4) == 0}
	}
	return out
}
