// Command perfbench is the repository's benchmark. It runs the real
// program in-process on inputs made from a seed and prints, as the
// last line of its output, one JSON object with the correctness
// verdict, the operations attempted and failed, and the metrics.
//
// Workloads:
//
//	study   repeats the full 61-country study: pipeline, reports, export
//	reload  swaps a daemon between two exports under a closed-loop reader
//	serve   drives a warm daemon with two closed-loop clients
//
// With --trace 0 it reports the end-to-end metrics of the workload;
// with --trace 1 it makes the separate traced run, which reports the
// per-layer metrics, prints a self-time table and writes the spans as
// Chrome trace-event JSON. Run it from the repository root:
//
//	bash perfbench/run.sh --workload serve --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	c, err := parseFlags(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if err := os.MkdirAll(c.work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	res, err := runWorkload(context.Background(), c)
	if rerr := os.RemoveAll(c.work); err == nil {
		err = rerr
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	info, err := json.Marshal(map[string]any{
		"stamp":      stamp(c),
		"fail_ratio": float64(res.failed) / float64(res.attempted),
		"detail":     res.detail,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	last, err := json.Marshal(map[string]any{
		"correct":   res.failed == 0,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   res.metrics,
	})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if res.trace != nil {
		res.trace.writeTable(stdout)
	}
	fmt.Fprintln(stdout, string(info))
	fmt.Fprintln(stdout, string(last))
	return 0
}

func parseFlags(args []string, stderr io.Writer) (*config, error) {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		c         config
		secs      = fl.Int("seconds", 25, "how long the workload's timed loop runs")
		trace     = fl.Int("trace", 0, "1 makes the traced run that reports per-layer metrics")
		countries = fl.String("countries", "", "comma-separated country subset (default: the full panel)")
	)
	fl.StringVar(&c.workload, "workload", "", "study, reload or serve")
	fl.Int64Var(&c.seed, "seed", 1, "seed the workload's inputs are made from")
	fl.Float64Var(&c.scale, "scale", 0.1, "fraction of the paper's estate size")
	fl.StringVar(&c.out, "out", ".bench_build", "directory for the trace file and scratch inputs")
	if err := fl.Parse(args); err != nil {
		return nil, err
	}
	switch c.workload {
	case "study", "reload", "serve":
	default:
		return nil, fmt.Errorf("%w %q", errUnknownWorkload, c.workload)
	}
	if *secs < 1 || c.scale <= 0 {
		return nil, errors.New("--seconds and --scale must be positive")
	}
	c.seconds = time.Duration(*secs) * time.Second
	c.trace = *trace != 0
	if *countries != "" {
		c.countries = strings.Split(*countries, ",")
	}
	c.work = filepath.Join(c.out, fmt.Sprintf("work-%s-%d", c.workload, os.Getpid()))
	return &c, nil
}

// stamp identifies the host, toolchain and code a result came from,
// so results from different hosts are never compared by accident.
func stamp(c *config) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit,
		"source_sha256": sourceDigest(),
		"workload":      c.workload,
		"seed":          c.seed,
		"scale":         c.scale,
		"seconds":       c.seconds.Seconds(),
		"trace":         c.trace,
	}
}

// sourceDigest hashes every Go source and module file under the
// working directory, so results from checkouts without version
// control still name the code they measured.
func sourceDigest() string {
	var paths []string
	// The walk skips what it cannot read instead of failing, so the
	// callback never returns an error and neither does WalkDir.
	_ = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if strings.HasSuffix(p, ".go") || d.Name() == "go.mod" {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			return "unreadable"
		}
		fmt.Fprintf(h, "%s %d\n", p, len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
