package main

// The study workload: one client runs the paper pipeline in-process, op
// after op. An op builds the measurement corpus (CenTrace, CenProbe,
// CenFuzz over the simulated world) and derives the §5–§7 results from
// it; nearly all of its time is in the measurement and ML layers.

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"cendev/internal/cenfuzz"
	"cendev/internal/cenprobe"
	"cendev/internal/centrace"
	"cendev/internal/experiments"
	"cendev/internal/features"
	"cendev/internal/ml"
	"cendev/internal/obs"
)

// studyGolden is the SHA-256 of the study outputs that are byte-stable
// at this commit: the corpus, Table 1, Figures 3–5, and the banner and
// quote statistics. Fig. 6, Fig. 9 and §7.4 are not pinned: the forest
// still varies from run to run (ml.fig9_distinct_outputs counts how).
const studyGolden = "9118025641eaa0ce799e964a9a10d35a17ad81c5fbff381f357161f98276393c"

// fig9AccuracyFloor is the lowest acceptable mean 3×5-fold CV accuracy
// of the Fig. 9 vendor classifier.
const fig9AccuracyFloor = 0.7

// studyOutputs are what one op produces that the checks look at.
type studyOutputs struct {
	corpus   *experiments.Corpus
	fig5     []experiments.Fig5Row
	accuracy float64
	fig9     string // digest of the Fig. 9 accuracies and importances
}

// studyOp runs one op: the pipeline with the default corpus config at one
// worker. Spans wrap each public call when tr is non-nil.
func studyOp(reg *obs.Registry, tr *tracer, op int) studyOutputs {
	root := tr.start("study.op", op, 0)
	defer tr.end(root)
	call := func(name string, fn func()) {
		id := tr.start(name, op, root)
		fn()
		tr.end(id)
	}
	var o studyOutputs
	var acc, imp []float64
	call("experiments.BuildCorpus", func() {
		o.corpus = experiments.BuildCorpus(experiments.CorpusConfig{Workers: 1, Obs: reg})
	})
	c := o.corpus
	call("experiments.Fig5", func() { o.fig5 = experiments.Fig5(c) })
	call("experiments.Fig6", func() { experiments.Fig6(c, experiments.Fig6Config{Workers: 1}) })
	call("experiments.Fig9", func() { acc, imp = experiments.Fig9(c) })
	call("experiments.ClassifyUnlabeled", func() { experiments.ClassifyUnlabeled(c) })
	call("experiments.VendorCorrelations", func() { experiments.VendorCorrelations(c) })
	call("experiments.CrossValidate", func() {
		experiments.CrossValidate(experiments.CrossValConfig{Workers: 1, Obs: reg})
	})
	for _, a := range acc {
		o.accuracy += a / float64(len(acc))
	}
	o.fig9 = digestString(fmt.Sprint(acc, imp))
	return o
}

// studyDigest hashes the byte-stable outputs of one op.
func studyDigest(o studyOutputs) string {
	c := o.corpus
	h := sha256.New()
	put := func(v any) {
		raw, err := json.Marshal(v)
		if err != nil {
			panic(fmt.Sprintf("cenbench: encoding study output: %v", err))
		}
		h.Write(raw)
		h.Write([]byte{'\n'})
	}
	for _, tr := range c.Traces {
		r := *tr.Result
		r.Config.Obs, r.Config.Tracer, r.Config.Parent = nil, nil, nil
		put([]any{tr.Key(), tr.Country, tr.InCountry, r})
	}
	for _, m := range []map[string]*cenfuzz.Result{c.Fuzz, c.InCountryFuzz} {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			put([]any{k, m[k]})
		}
	}
	put(c.PotentialDeviceIPs)
	for _, a := range c.PotentialDeviceIPs {
		put(c.Probes[a])
	}
	h.Write([]byte(experiments.RenderTable1(experiments.Table1(c))))
	h.Write([]byte(experiments.RenderFig3(experiments.Fig3(c))))
	h.Write([]byte(experiments.RenderFig4(experiments.Fig4(c))))
	h.Write([]byte(experiments.RenderFig5(o.fig5)))
	h.Write([]byte(experiments.RenderBannerStats(experiments.BannerStatistics(c))))
	put(experiments.QuoteStatistics(c))
	return hex.EncodeToString(h.Sum(nil))
}

func digestString(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// studyChecker verifies every op against the pinned digest and the Fig. 9
// accuracy floor.
type studyChecker struct {
	cfg     config
	golden  string
	out     outcome
	fig9Out map[string]bool
}

func newStudyChecker(cfg config) *studyChecker {
	g := studyGolden
	if cfg.corruptRef {
		g = corruptDigest(g)
	}
	return &studyChecker{cfg: cfg, golden: g, out: outcome{correct: true}, fig9Out: map[string]bool{}}
}

// corruptDigest flips the last hex digit of a digest.
func corruptDigest(d string) string {
	if strings.HasSuffix(d, "0") {
		return d[:len(d)-1] + "1"
	}
	return d[:len(d)-1] + "0"
}

func (k *studyChecker) check(o studyOutputs) {
	k.out.attempted++
	k.fig9Out[o.fig9] = true
	if d := studyDigest(o); d != k.golden {
		k.out.fail(k.cfg.log, "study outputs digest %s, want %s", d, k.golden)
		return
	}
	if o.accuracy < fig9AccuracyFloor {
		k.out.fail(k.cfg.log, "Fig. 9 mean accuracy %.3f below floor %.2f", o.accuracy, fig9AccuracyFloor)
	}
}

// studyStretch is one measured stretch of warm ops.
type studyStretch struct {
	lat  latencies
	use  []usage // per op
	last studyOutputs
}

// perOp returns the median over the ops of f.
func (s studyStretch) perOp(f func(u usage) float64) float64 {
	xs := make([]float64, len(s.use))
	for i, u := range s.use {
		xs[i] = f(u)
	}
	return median(xs)
}

// measureStudy runs warm ops until d has passed. Each op starts after a
// full GC, so every op meets the heap a fresh process would; the GC and
// the checks sit outside the timed section.
func measureStudy(k *studyChecker, reg *obs.Registry, tr *tracer, d time.Duration, firstOp int) studyStretch {
	var s studyStretch
	end := time.Now().Add(d)
	for op := firstOp; len(s.lat.ms) == 0 || time.Now().Before(end); op++ {
		runtime.GC()
		u0 := readUsage()
		t0 := time.Now()
		o := studyOp(reg, tr, op)
		s.lat.add(time.Since(t0))
		s.use = append(s.use, readUsage().sub(u0))
		k.check(o)
		s.last = o
	}
	return s
}

func runStudy(cfg config) (values, outcome, error) {
	k := newStudyChecker(cfg)
	setups, err := studyColdOps(cfg, k)
	if err != nil {
		return nil, k.out, err
	}
	if !cfg.trace {
		s := measureStudy(k, nil, nil, cfg.seconds, 1)
		peak, err := peakRSSMB()
		if err != nil {
			return nil, k.out, err
		}
		return values{
			"setup_s":         median(setups),
			"cpu_ms_per_op":   s.perOp(func(u usage) float64 { return ms(u.cpu) }),
			"allocs_per_op":   s.perOp(func(u usage) float64 { return float64(u.mallocs) }),
			"alloc_mb_per_op": s.perOp(func(u usage) float64 { return float64(u.bytes) / (1 << 20) }),
			"peak_rss_mb":     peak,
		}, k.out, nil
	}

	base := measureStudy(k, nil, nil, cfg.seconds/2, 1)
	reg, tr := obs.NewRegistry(), newTracer()
	s := measureStudy(k, reg, tr, cfg.seconds/2, len(base.lat.ms)+1)
	v := layerValues()
	var use usage
	for _, u := range s.use {
		use = use.add(u)
	}
	v["runtime.gc_cpu_fraction"] = use.gcFraction()
	v["obs.overhead_ratio"] = s.lat.pct(0.50) / base.lat.pct(0.50)
	v["op.lat_p50_ms"] = base.lat.pct(0.50)
	v["op.ops_per_s"] = float64(len(base.lat.ms)) / (base.lat.sum() / 1000)
	v["op.lat_p90_ms"] = base.lat.pct(0.90)
	v["op.lat_p99_ms"] = base.lat.pct(0.99)
	n := float64(len(s.lat.ms))
	v["simnet.packets_per_op"] = float64(counter(reg, "simnet_packets_forwarded_total")) / n
	v["centrace.probes_per_op"] = float64(counter(reg, "centrace_probes_total")) / n
	v["cenfuzz.perms_per_op"] = float64(counter(reg, "cenfuzz_perms_total")) / n
	v["centrace.traces_per_op"] = float64(len(s.last.corpus.Traces))
	v["cenprobe.grabs_per_op"] = float64(len(s.last.corpus.PotentialDeviceIPs))
	v["tomography.crossval_ms"] = median(tr.durations("experiments.CrossValidate"))
	v["ml.fig9_distinct_outputs"] = float64(len(k.fig9Out))
	replayStudy(s.last.corpus, reg, tr, len(base.lat.ms)+len(s.lat.ms)+1, v)
	return v, k.out, finishTrace(cfg, tr)
}

// studyColdOps times the first op of setupRuns fresh processes: this
// one, and setupRuns-1 children running only their cold op.
func studyColdOps(cfg config, k *studyChecker) ([]float64, error) {
	runtime.GC()
	t0 := time.Now()
	o := studyOp(nil, nil, 0)
	setups := []float64{time.Since(t0).Seconds()}
	k.check(o)
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	for i := 1; i < setupRuns; i++ {
		var stdout bytes.Buffer
		cmd := exec.Command(self, "-workload", "study", "-cold-op")
		cmd.Stdout, cmd.Stderr = &stdout, cfg.log
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("cold study op in a child process: %w", err)
		}
		f := strings.Fields(stdout.String())
		if len(f) != 2 {
			return nil, fmt.Errorf("cold study op printed %q, want \"<seconds> <digest>\"", stdout.String())
		}
		sec, err := strconv.ParseFloat(f[0], 64)
		if err != nil {
			return nil, err
		}
		k.out.attempted++
		if f[1] != k.golden {
			k.out.fail(cfg.log, "cold op outputs digest %s, want %s", f[1], k.golden)
		}
		setups = append(setups, sec)
	}
	return setups, nil
}

// coldOp is the child side of studyColdOps: one op in a fresh process,
// printing its wall seconds and output digest.
func coldOp() {
	runtime.GC()
	t0 := time.Now()
	o := studyOp(nil, nil, 0)
	sec := time.Since(t0).Seconds()
	fmt.Printf("%.9f %s\n", sec, studyDigest(o))
}

// replayStudy feeds one op's own inputs through the stages BuildCorpus
// and the figures hide, one public call at a time, and fills the
// per-stage metrics. Cheap stages repeat, and report their median call.
func replayStudy(c *experiments.Corpus, reg *obs.Registry, tr *tracer, op int, v values) {
	root := tr.start("replay", op, 0)
	defer tr.end(root)
	s := c.Scenario
	n := s.Net.Clone()
	stage := func(name string, reps int, fn func()) (perCall float64, u usage) {
		id := tr.start(name, op, root)
		var times []float64
		u0 := readUsage()
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			fn()
			times = append(times, ms(time.Since(t0)))
		}
		u = readUsage().sub(u0)
		tr.end(id)
		return median(times), u
	}

	packets0 := counter(reg, "simnet_packets_forwarded_total")
	traceMS, _ := stage("centrace.Prober.Run", 1, func() {
		for _, rec := range c.Traces {
			client := s.USClient
			if rec.InCountry {
				client = s.InCountryClients[rec.Country]
			}
			n.BeginMeasurement(n.Now(), n.PortSeq())
			centrace.New(n, client, rec.Endpoint.Host, centrace.Config{
				ControlDomain: experiments.ControlDomain,
				TestDomain:    rec.Domain,
				Protocol:      rec.Protocol,
				Repetitions:   c.Config.Repetitions,
				Obs:           reg,
			}).Run()
		}
	})
	packets := counter(reg, "simnet_packets_forwarded_total") - packets0
	v["centrace.ms_per_trace"] = traceMS / float64(len(c.Traces))
	v["simnet.ns_per_packet"] = traceMS * 1e6 / float64(packets)

	ids := make([]string, 0, len(c.Fuzz))
	for id := range c.Fuzz {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	perms0 := counter(reg, "cenfuzz_perms_total")
	fuzzMS, fuzzUse := stage("cenfuzz.Fuzzer.Run", 1, func() {
		for _, id := range ids {
			rec := c.FuzzTrace[id]
			n.BeginMeasurement(n.Now(), n.PortSeq())
			cenfuzz.New(n, s.USClient, rec.Endpoint.Host, cenfuzz.Config{
				TestDomain:    rec.Domain,
				ControlDomain: experiments.ControlDomain,
				Obs:           reg,
			}).Run(nil)
		}
	})
	perms := counter(reg, "cenfuzz_perms_total") - perms0
	v["cenfuzz.ms_per_job"] = fuzzMS / float64(len(ids))
	v["cenfuzz.allocs_per_perm"] = float64(fuzzUse.mallocs) / float64(perms)

	probeMS, _ := stage("cenprobe.ProbeAll", 3, func() { cenprobe.ProbeAll(n, c.PotentialDeviceIPs) })
	v["cenprobe.ms_per_grab"] = probeMS / float64(len(c.PotentialDeviceIPs))

	observations := c.Observations()
	v["features.extract_ms"], _ = stage("features.Extract", 20, func() { features.Extract(observations) })

	d, _, _ := features.Extract(observations).Imputed().LabeledDataset()
	var importance []float64
	forestMS, forestUse := stage("ml.CrossValidate", 3, func() {
		_, importance = ml.CrossValidate(d, ml.ForestConfig{NumTrees: 60, Seed: 1}, 5, 3)
	})
	v["ml.forest_ms"] = forestMS
	v["ml.forest_allocs"] = float64(forestUse.mallocs) / 3

	// DBSCAN's input is Fig. 6's: the top-10 importance columns, imputed
	// and standardized, with the k-distance ε.
	sub := features.Extract(observations).SelectColumns(ml.TopKIndices(importance, 10)).Imputed()
	ml.Standardize(sub.X)
	eps := ml.KDistanceEpsilon(sub.X, 2)
	v["ml.dbscan_ms"], _ = stage("ml.DBSCAN", 200, func() { ml.DBSCAN(sub.X, eps, 2) })
}

// counter sums every series of a registry counter across its labels.
func counter(reg *obs.Registry, name string) int64 {
	snap := reg.FullSnapshot()
	var total int64
	for _, set := range [][]obs.MetricSnap{snap.Metrics, snap.Runtime} {
		for _, m := range set {
			if m.Name == name {
				total += m.Value
			}
		}
	}
	return total
}
