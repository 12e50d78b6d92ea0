package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the tests check.
type benchmarkSpec struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []specMetric `json:"end_to_end"`
	PerLayer  []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// tinyArgs runs a workload on a few countries at a tiny scale.
func tinyArgs(t *testing.T, workload, trace string) []string {
	return []string{"--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace,
		"--scale", "0.005", "--countries", "US,UY,FR", "--out", t.TempDir()}
}

// lastLine runs the benchmark and decodes its last output line.
func lastLine(t *testing.T, args []string) (map[string]json.RawMessage, string) {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
		t.Fatalf("last line is not JSON: %v\n%s", err, out.String())
	}
	return got, out.String()
}

func TestSpecIsWellFormed(t *testing.T) {
	spec := loadSpec(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, m := range append(spec.EndToEnd, spec.PerLayer...) {
		if !name.MatchString(m.Name) || !unit.MatchString(m.Unit) || seen[m.Name] {
			t.Errorf("bad or repeated metric %+v", m)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("%s: better = %q", m.Name, m.Better)
		}
	}
	setup := false
	for _, m := range spec.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		setup = setup || (m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric in seconds, lower better")
	}
	for _, w := range spec.Workloads {
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") || seen[w.Name] {
			t.Errorf("bad workload %+v", w)
		}
		seen[w.Name] = true
	}
}

// TestWorkloadsPrintTheSpecMetrics runs every workload untraced and
// traced and checks the last line against BENCHMARK.json.
func TestWorkloadsPrintTheSpecMetrics(t *testing.T) {
	spec := loadSpec(t)
	for _, w := range spec.Workloads {
		for trace, want := range map[string][]specMetric{"0": spec.EndToEnd, "1": spec.PerLayer} {
			t.Run(w.Name+"/trace="+trace, func(t *testing.T) {
				got, out := lastLine(t, tinyArgs(t, w.Name, trace))
				if len(got) != 4 {
					t.Errorf("last line has keys %v, want correct, attempted, failed, metrics", keys(got))
				}
				var correct bool
				var attempted, failed int
				json.Unmarshal(got["correct"], &correct)
				json.Unmarshal(got["attempted"], &attempted)
				json.Unmarshal(got["failed"], &failed)
				if !correct || failed != 0 || attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d\n%s", correct, attempted, failed, out)
				}
				var metrics map[string]metric
				if err := json.Unmarshal(got["metrics"], &metrics); err != nil {
					t.Fatal(err)
				}
				if len(metrics) != len(want) {
					t.Errorf("%d metrics, want %d: %v", len(metrics), len(want), keys(metrics))
				}
				for _, m := range want {
					g, ok := metrics[m.Name]
					if !ok || g.Unit != m.Unit {
						t.Errorf("%s: got %+v (present %v), want unit %s", m.Name, g, ok, m.Unit)
					}
				}
				if trace == "0" {
					for name, g := range metrics {
						if g.Value <= 0 {
							t.Errorf("%s = %v, want > 0", name, g.Value)
						}
					}
				}
			})
		}
	}
}

func keys[V any](m map[string]V) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// tampered runs a workload at a tiny scale after tamper has altered
// what it expects.
func tampered(t *testing.T, workload string, tamper func(expectations, []dataFile)) *result {
	t.Helper()
	var errb bytes.Buffer
	c, err := parseFlags(tinyArgs(t, workload, "0"), &errb)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		t.Fatal(err)
	}
	c.tamper = tamper
	res, err := runWorkload(context.Background(), c)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestCorruptBodyIsAFailure(t *testing.T) {
	for _, w := range []string{"serve", "reload"} {
		res := tampered(t, w, func(exp expectations, _ []dataFile) {
			for _, bodies := range exp {
				for k, e := range bodies {
					e.body = append([]byte(nil), e.body...)
					e.body[len(e.body)/2] ^= 1
					bodies[k] = e
				}
			}
		})
		if res.failed == 0 || res.failed > res.attempted {
			t.Errorf("%s: corrupted bodies gave %d failed of %d", w, res.failed, res.attempted)
		}
	}
}

func TestWrongVersionIsAFailure(t *testing.T) {
	res := tampered(t, "reload", func(_ expectations, files []dataFile) {
		files[1].version = "000000000000"
	})
	if res.failed == 0 {
		t.Errorf("a wrong expected version gave %d failed of %d", res.failed, res.attempted)
	}
}

func TestCorruptNotModifiedTagIsAFailure(t *testing.T) {
	res := tampered(t, "serve", func(exp expectations, _ []dataFile) {
		for _, bodies := range exp {
			for k, e := range bodies {
				e.tag = `"stale"`
				bodies[k] = e
			}
		}
	})
	if res.failed == 0 {
		t.Errorf("wrong tags gave %d failed of %d", res.failed, res.attempted)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	tr := newTracer("t")
	tr.spans = []span{
		{ID: 1, Name: "p", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "c", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "c", Start: 30, End: 60},
	}
	for _, r := range tr.selfTimes() {
		want := map[string]int64{"p": 50, "c": 60}[r.name]
		if int64(r.self) != want {
			t.Errorf("%s self = %d, want %d", r.name, r.self, want)
		}
	}
}
