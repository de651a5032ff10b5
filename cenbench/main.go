// Command cenbench is the repository's benchmark: it runs one workload
// against the study pipeline, a standalone censerved, or a censerved
// cluster, checks every output, and prints one JSON result line.
//
//	cenbench -workload study -seed 1 -seconds 20 -trace 0
//
// Workloads: study, serve-open, cluster-closed (README.md says why each
// exists and what load it offers). With -trace 0 the result carries the
// end-to-end metrics; with -trace 1 it carries the per-layer metrics of a
// separate traced run, and the spans are written under -out.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// setupRuns is how many set-ups (node restarts, cold study ops) setup_s is
// the median of. A set-up takes 0.1–1.3 s, but stopping a cluster over
// the history between two of them takes about 3.5 s (its drain sweeps
// every stored result against its replicas), which bounds how many a run
// can afford.
const setupRuns = 7

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// workDir holds the invocation's stores; traceDir the traced runs'
	// span dumps.
	workDir, traceDir string
	// corruptRef flips one reference digest, so a run must report a
	// failure; the smoke test uses it to prove the checks can fail.
	corruptRef bool
	log        io.Writer
}

// outcome is a run's correctness tally.
type outcome struct {
	attempted, failed int
	correct           bool
}

func (o *outcome) fail(log io.Writer, format string, args ...any) {
	o.failed++
	o.correct = false
	fmt.Fprintf(log, "cenbench: FAIL: "+format+"\n", args...)
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(config) (values, outcome, error){
	"study":          runStudy,
	"serve-open":     runServeOpen,
	"cluster-closed": runClusterClosed,
}

func main() {
	workload := flag.String("workload", "", "study | serve-open | cluster-closed")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1: traced run printing per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for scratch stores and trace dumps")
	corrupt := flag.Bool("corrupt-ref", false, "flip one reference digest (the run must then fail)")
	cold := flag.Bool("cold-op", false, "run one cold study op and print its seconds and output digest")
	flag.Parse()
	if *cold {
		coldOp()
		return
	}
	if _, ok := workloads[*workload]; !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "cenbench: need -workload study|serve-open|cluster-closed, -seconds > 0, -trace 0|1")
		os.Exit(2)
	}
	cfg := config{
		workload:   *workload,
		seed:       *seed,
		seconds:    time.Duration(*seconds * float64(time.Second)),
		trace:      *trace == 1,
		workDir:    filepath.Join(*out, "work", fmt.Sprintf("%s-%d", *workload, os.Getpid())),
		traceDir:   filepath.Join(*out, "traces"),
		corruptRef: *corrupt,
		log:        os.Stderr,
	}
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cenbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cenbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one invocation and assembles its result line.
func run(cfg config) (result, error) {
	if err := os.MkdirAll(cfg.workDir, 0o755); err != nil {
		return result{}, err
	}
	defer os.RemoveAll(cfg.workDir)
	vals, out, err := workloads[cfg.workload](cfg)
	if err != nil {
		return result{}, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	m := make(map[string]metric, len(defs))
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return result{}, fmt.Errorf("%s did not measure %s", cfg.workload, d.Name)
		}
		m[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return result{Correct: out.correct && out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: m}, nil
}

// layerValues returns the per-layer set with every layer at 0, for a
// traced workload to fill in the layers it drives.
func layerValues() values {
	v := values{}
	for _, d := range perLayer {
		v[d.Name] = 0
	}
	return v
}

// finishTrace prints the layer table and dumps the spans.
func finishTrace(cfg config, tr *tracer) error {
	fmt.Fprintf(cfg.log, "cenbench: %s traced spans (self time = duration minus child spans)\n", cfg.workload)
	writeLayerTable(cfg.log, tr.layers())
	return tr.dump(filepath.Join(cfg.traceDir, fmt.Sprintf("%s-seed%d.json", cfg.workload, cfg.seed)))
}
