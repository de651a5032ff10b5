package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the system sees, printed by every
// workload in an untraced run. Latency and throughput are per-layer
// metrics: on a shared host they did not repeat within any bound the
// benchmark may set (README.md, "End-to-end metrics").
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"cpu_ms_per_op", "ms"},
	{"allocs_per_op", "count"},
	{"alloc_mb_per_op", "MB"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, printed by every workload. A
// layer a workload does not drive reads 0 there. README.md says which
// end-to-end metric each one should move, and on which workload.
var perLayer = []metricDef{
	{"op.lat_p50_ms", "ms"},
	{"op.ops_per_s", "1/s"},
	{"op.lat_p90_ms", "ms"},
	{"op.lat_p99_ms", "ms"},
	{"simnet.packets_per_op", "count"},
	{"simnet.ns_per_packet", "ns"},
	{"centrace.traces_per_op", "count"},
	{"centrace.probes_per_op", "count"},
	{"centrace.ms_per_trace", "ms"},
	{"cenfuzz.perms_per_op", "count"},
	{"cenfuzz.ms_per_job", "ms"},
	{"cenfuzz.allocs_per_perm", "count"},
	{"cenprobe.grabs_per_op", "count"},
	{"cenprobe.ms_per_grab", "ms"},
	{"features.extract_ms", "ms"},
	{"ml.forest_ms", "ms"},
	{"ml.forest_allocs", "count"},
	{"ml.dbscan_ms", "ms"},
	{"ml.fig9_distinct_outputs", "count"},
	{"tomography.crossval_ms", "ms"},
	{"runtime.gc_cpu_fraction", "ratio"},
	{"serve.submit_ms_p50", "ms"},
	{"serve.submit_ms_p99", "ms"},
	{"serve.queue_wait_ms_p50", "ms"},
	{"serve.exec_ms_p50", "ms"},
	{"serve.result_get_ms_p50", "ms"},
	{"serve.queue_depth_max", "count"},
	{"serve.cache_hit_ratio", "ratio"},
	{"scheduler.centrace_ms", "ms"},
	{"scheduler.cenprobe_ms", "ms"},
	{"scheduler.tomography_ms", "ms"},
	{"scheduler.cenfuzz_ms", "ms"},
	{"gen.late_ms_p99", "ms"},
	{"gen.backlog_end", "count"},
	{"store.replay_ms", "ms"},
	{"store.records_replayed", "count"},
	{"cluster.leases_per_job", "count"},
	{"cluster.pulls_per_lease", "count"},
	{"cluster.steals", "count"},
	{"cluster.conflicts", "count"},
	{"cluster.fetch_ms_p50", "ms"},
	{"obs.overhead_ratio", "ratio"},
}

// metric is one printed value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// values collects named metric values before they are checked against a
// definition list and printed.
type values map[string]float64

// missed is the latency reported for a percentile that falls on failed
// or refused ops: they count as missing every latency limit.
const missed = math.MaxFloat64

// latencies holds one run's op latencies, plus the failed ops that
// count as infinitely slow.
type latencies struct {
	ms     []float64
	failed int
}

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, ms(d)) }

// pct returns the nearest-rank q-quantile; failed ops rank above every
// success.
func (l *latencies) pct(q float64) float64 {
	n := len(l.ms) + l.failed
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(l.ms) {
		return missed
	}
	sorted := append([]float64(nil), l.ms...)
	sort.Float64s(sorted)
	return sorted[rank]
}

// sum returns the total of the successful latencies.
func (l *latencies) sum() float64 {
	s := 0.0
	for _, v := range l.ms {
		s += v
	}
	return s
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// usage is a process-wide resource reading: CPU time of every thread and
// the heap's cumulative allocation counters.
type usage struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
	// gcCPU and rtCPU are the runtime's own estimates of GC and total
	// CPU seconds.
	gcCPU, rtCPU float64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	rt := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(rt)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs: m.Mallocs,
		bytes:   m.TotalAlloc,
		gcCPU:   rt[0].Value.Float64(),
		rtCPU:   rt[1].Value.Float64(),
	}
}

func (u usage) sub(v usage) usage {
	return usage{u.cpu - v.cpu, u.mallocs - v.mallocs, u.bytes - v.bytes, u.gcCPU - v.gcCPU, u.rtCPU - v.rtCPU}
}

func (u usage) add(v usage) usage {
	return usage{u.cpu + v.cpu, u.mallocs + v.mallocs, u.bytes + v.bytes, u.gcCPU + v.gcCPU, u.rtCPU + v.rtCPU}
}

// resetPeakRSS returns the heap the process no longer uses to the OS and
// restarts its resident-set high-water mark from what is left, so a
// later peakRSSMB reading leaves out the benchmark's own fixtures.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's resident-set high-water mark (VmHWM) since
// it started or since the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM line in /proc/self/status")
}

// gcFraction is the GC's share of the Go runtime's CPU time in u.
func (u usage) gcFraction() float64 {
	if u.rtCPU <= 0 {
		return 0
	}
	return u.gcCPU / u.rtCPU
}
