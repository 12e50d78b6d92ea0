package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks; xs is left unchanged.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// seconds converts durations to float seconds.
func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// runtimeSample reads the runtime/metrics counters the benchmark uses.
type runtimeSample struct {
	allocBytes uint64  // cumulative heap bytes allocated
	gcCycles   uint64  // completed GC cycles
	gcCPU      float64 // estimated CPU seconds spent in GC
}

var runtimeKeys = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	ss := make([]metrics.Sample, len(runtimeKeys))
	for i, k := range runtimeKeys {
		ss[i].Name = k
	}
	metrics.Read(ss)
	return runtimeSample{
		allocBytes: ss[0].Value.Uint64(),
		gcCycles:   ss[1].Value.Uint64(),
		gcCPU:      ss[2].Value.Float64(),
	}
}

// usage is a point-in-time reading of wall clock, process CPU and
// allocation; the difference of two readings is the cost of what ran
// between them.
type usage struct {
	wall  time.Time
	cpu   time.Duration
	alloc uint64
}

func readUsage() usage {
	return usage{wall: time.Now(), cpu: cpuTime(), alloc: readRuntime().allocBytes}
}

type cost struct {
	wall  time.Duration
	cpu   time.Duration
	alloc uint64
}

func (u usage) since() cost {
	now := readUsage()
	return cost{wall: now.wall.Sub(u.wall), cpu: now.cpu - u.cpu, alloc: now.alloc - u.alloc}
}

// liveHeap is the heap still reachable after two full collections.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// costs collects one workload's per-operation costs.
type costs struct {
	wall, cpu, alloc []float64 // seconds, seconds, bytes
}

func (c *costs) add(k cost) {
	c.wall = append(c.wall, k.wall.Seconds())
	c.cpu = append(c.cpu, k.cpu.Seconds())
	c.alloc = append(c.alloc, float64(k.alloc))
}

// opMetrics renders the per-operation end-to-end metrics every
// workload whose operation is long (a study, a reload) reports:
// medians over its operations, and throughput over the time spent in
// them.
func (c *costs) opMetrics(m metricSet) {
	total := 0.0
	for _, w := range c.wall {
		total += w
	}
	m.set("op_ms", median(c.wall)*1e3, "ms")
	m.set("op_cpu_ms", median(c.cpu)*1e3, "ms")
	m.set("op_alloc_kb", median(c.alloc)/1024, "KB")
	m.set("ops_per_s", float64(len(c.wall))/total, "1/s")
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
