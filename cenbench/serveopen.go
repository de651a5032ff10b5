package main

// The serve-open workload: independent users submit small jobs to a
// standalone censerved on a seeded Poisson schedule, whether or not
// earlier jobs have finished. Admission, queue, store append and fsync,
// HTTP/JSON and the result cache do most of the work.

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"cendev/internal/obs"
	"cendev/internal/serve"
)

const (
	// serveRate is the offered load: about a third of the 520–630 jobs/s
	// one closed-loop client got through the same node on a 2-CPU host,
	// so that a stretch in which other tenants of a shared host take CPU
	// does not push the node past capacity.
	serveRate = 200.0
	// repeatShare of arrivals resubmit a spec from the store's history,
	// so they take the result-cache path.
	repeatShare = 0.25
	// warmup precedes every measured window, so caches fill and lazy
	// set-up finishes before timing.
	warmup = 2 * time.Second
	// A run is invalid, not fast, when the generator falls behind its
	// schedule — its median op is sent late — or arrivals pile up unsent
	// at the end of the window. A store stall that briefly holds up both
	// clients shows in the latency tail instead.
	maxLateP50 = 5 * time.Millisecond
	maxBacklog = serveRate / 2
)

// schedule draws the arrivals of a warm-up and of each part of a
// measured window: a Poisson process at serveRate conditioned on its
// count, so each stretch holds exactly rate × length arrivals at seeded
// uniform times. Exactly round(repeatShare × n) of them resubmit a
// history spec; such a repeat must hit the result cache when its spec
// replays with its cache key intact (cached[j]).
func schedule(rng *rand.Rand, m *mix, h *history, cached []bool, window time.Duration) ([]opRun, error) {
	var runs []opRun
	n := partsOf(window)
	for k := -1; k < n; k++ {
		from, length := warmup+time.Duration(k)*window/time.Duration(n), window/time.Duration(n)
		if k < 0 {
			from, length = 0, warmup
		}
		ts := make([]float64, int(math.Round(serveRate*length.Seconds())))
		for i := range ts {
			ts[i] = rng.Float64()
		}
		sort.Float64s(ts)
		for _, t := range ts {
			runs = append(runs, opRun{at: from + time.Duration(t*float64(length)), part: k})
		}
	}
	// Each repeat resubmits a different history job, so whether it hits
	// the cache never depends on an earlier op of the same run.
	repeats := int(math.Round(repeatShare * float64(len(runs))))
	if repeats > len(h.specs) {
		return nil, fmt.Errorf("%d repeats need a history of at least that many jobs, have %d", repeats, len(h.specs))
	}
	repeat := map[int]int{}
	picks := rng.Perm(len(h.specs))
	for k, i := range rng.Perm(len(runs))[:repeats] {
		repeat[i] = picks[k]
	}
	for i := range runs {
		if j, ok := repeat[i]; ok {
			runs[i].spec, runs[i].ref, runs[i].repeat, runs[i].expectHit = h.specs[j], h.digests[j], true, cached[j]
		} else {
			runs[i].spec = m.spec()
		}
	}
	return runs, nil
}

// openLoop sends runs on their schedule from nproc client goroutines,
// each with one connection. An op whose due time passes while every
// client is busy is sent late, and its latency still counts from its
// due time. It returns the window's parts, the process's peak RSS as the
// window opened, and the arrivals left unsent when the window closed.
func openLoop(url string, runs []opRun, window time.Duration, tr *tracer, roots []atomic.Int64) ([]part, float64, int, error) {
	clients := runtime.NumCPU()
	a := newAPI(url, clients)
	defer a.close()
	pacers := make([]*pacer, clients+1) // one per client, the last for the window clock
	for i := range pacers {
		p, err := newPacer()
		if err != nil {
			return nil, 0, 0, err
		}
		defer p.close()
		pacers[i] = p
	}
	clock := pacers[clients]
	start := time.Now().Add(10 * time.Millisecond)
	for i := range runs {
		runs[i].due = start.Add(runs[i].at)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, p := range pacers[:clients] {
		wg.Add(1)
		go func(p *pacer) {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(runs) {
					return
				}
				r := &runs[i]
				p.until(r.due)
				r.sent = time.Now()
				root := tr.start("serve.op", i, 0)
				if roots != nil {
					roots[i].Store(int64(root))
				}
				var payload []byte
				payload, r.t, r.err = a.op(p, r.spec, tr, i, root)
				r.done = time.Now()
				tr.end(root)
				if r.err == nil {
					r.digest = serve.PayloadDigest(payload)
				}
			}
		}(p)
	}
	ps := make([]part, partsOf(window))
	at := start.Add(warmup)
	clock.until(at)
	u, t := readUsage(), time.Now()
	peak, err := peakRSSMB()
	for k := range ps {
		at = at.Add(window / time.Duration(len(ps)))
		clock.until(at)
		now := readUsage()
		ps[k] = part{start: t, end: time.Now(), use: now.sub(u)}
		u, t = now, ps[k].end
	}
	backlog := max(len(runs)-int(next.Load()), 0)
	wg.Wait()
	return ps, peak, backlog, err
}

func runServeOpen(cfg config) (values, outcome, error) {
	out := outcome{correct: true}
	workers := runtime.NumCPU()
	m := newMix(cfg.seed)
	h, err := newHistory(m, workers)
	if err != nil {
		return nil, out, err
	}
	histDir := filepath.Join(cfg.workDir, "history")
	if err := h.writeStandalone(histDir); err != nil {
		return nil, out, err
	}
	cached, err := cacheableHistory(cfg, h, histDir)
	if err != nil {
		return nil, out, err
	}
	setups, node, err := timedStarts(cfg, histDir, func(dir string) (*standalone, error) {
		return startStandalone(dir, nil, nil)
	})
	if err != nil {
		return nil, out, err
	}
	rng := rand.New(rand.NewSource(cfg.seed ^ 0x5eed))

	// measure runs one schedule against node and stops it.
	measure := func(node *standalone, window time.Duration, tr *tracer, roots []atomic.Int64, runs []opRun) (stretch, int, error) {
		ps, peak, backlog, err := openLoop(node.url(), runs, window, tr, roots)
		if stopErr := node.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return stretch{}, 0, err
		}
		if err := checkRefs(runs, workers, cfg.corruptRef); err != nil {
			return stretch{}, 0, err
		}
		s := reduce(cfg, &out, runs, ps, peak)
		if late := time.Duration(s.late.pct(0.50) * float64(time.Millisecond)); late > maxLateP50 || backlog > maxBacklog {
			out.correct = false
			fmt.Fprintf(cfg.log, "cenbench: run invalid: generator median lateness %v, %d arrivals unsent at window end\n", late, backlog)
		}
		return s, backlog, nil
	}

	if !cfg.trace {
		runs, err := schedule(rng, m, h, cached, cfg.seconds)
		if err != nil {
			return nil, out, err
		}
		s, _, err := measure(node, cfg.seconds, nil, nil, runs)
		if err != nil {
			return nil, out, err
		}
		return s.endToEnd(setups), out, nil
	}

	half := cfg.seconds / 2
	runs, err := schedule(rng, m, h, cached, half)
	if err != nil {
		return nil, out, err
	}
	base, _, err := measure(node, half, nil, nil, runs)
	if err != nil {
		return nil, out, err
	}
	// The traced node runs its own scheduler through the RunHook seam, so
	// each execution is a span and queue depth is sampled as jobs start.
	reg, tr := obs.NewRegistry(), newTracer()
	sched := serve.NewScheduler(reg)
	depth := reg.Gauge("censerved_queue_depth")
	var depthMax atomic.Int64
	if runs, err = schedule(rng, m, h, cached, half); err != nil {
		return nil, out, err
	}
	roots := make([]atomic.Int64, len(runs))
	opOf := map[string]int{} // every spec in a schedule is distinct
	for i, r := range runs {
		opOf[r.spec.CanonKey()] = i
	}
	hook := func(spec serve.JobSpec) (json.RawMessage, error) {
		i := opOf[spec.CanonKey()]
		storeMax(&depthMax, depth.Value())
		id := tr.start("scheduler.Run", i, int(roots[i].Load()))
		defer tr.end(id)
		return sched.Run(spec)
	}
	dir, err := freshCopy(cfg, histDir, "traced")
	if err != nil {
		return nil, out, err
	}
	tnode, err := startStandalone(dir, reg, hook)
	if err != nil {
		return nil, out, err
	}
	s, backlog, err := measure(tnode, half, tr, roots, runs)
	if err != nil {
		return nil, out, err
	}
	v := layerValues()
	v["runtime.gc_cpu_fraction"] = s.use().gcFraction()
	v["obs.overhead_ratio"] = s.p50() / base.p50()
	base.opLayers(v)
	s.clientLayers(v)
	n := float64(len(runs))
	v["simnet.packets_per_op"] = float64(counter(reg, "simnet_packets_forwarded_total")) / n
	v["centrace.probes_per_op"] = float64(counter(reg, "centrace_probes_total")) / n
	v["cenfuzz.perms_per_op"] = float64(counter(reg, "cenfuzz_perms_total")) / n
	v["serve.cache_hit_ratio"] = float64(counter(reg, "censerved_cache_hits")) / n
	v["gen.late_ms_p99"] = s.late.pct(0.99)
	v["gen.backlog_end"] = float64(backlog)
	v["serve.queue_depth_max"] = float64(depthMax.Load())
	var queueWait, exec latencies
	for _, op := range tr.byOp("serve.submit", "scheduler.Run") {
		queueWait.ms = append(queueWait.ms, op[1].Start-op[0].End)
		exec.ms = append(exec.ms, op[1].End-op[1].Start)
	}
	v["serve.queue_wait_ms_p50"] = queueWait.pct(0.50)
	v["serve.exec_ms_p50"] = exec.pct(0.50)
	if v["store.replay_ms"], v["store.records_replayed"], err = replayStores(cfg, histDir); err != nil {
		return nil, out, err
	}
	if err := schedulerCosts(runs, v); err != nil {
		return nil, out, err
	}
	return v, out, finishTrace(cfg, tr)
}

// cacheableHistory finds the history specs a restarted node can still
// answer from its result cache, and reports the ones whose cache key does
// not survive store replay: their repeats execute again, which the
// per-op checks then expect.
func cacheableHistory(cfg config, h *history, histDir string) ([]bool, error) {
	dir, err := freshCopy(cfg, histDir, "replay-check")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	cached, err := h.replayedKeys(dir)
	if err != nil {
		return nil, err
	}
	lost := map[string]int{}
	for i, ok := range cached {
		if !ok {
			lost[h.specs[i].Kind]++
		}
	}
	if len(lost) > 0 {
		fmt.Fprintf(cfg.log, "cenbench: store replay changes the result-cache key of history specs %v; their repeats miss the cache\n", lost)
	}
	return cached, nil
}

// storeMax raises a to v if v is larger.
func storeMax(a *atomic.Int64, v int64) {
	for cur := a.Load(); v > cur && !a.CompareAndSwap(cur, v); cur = a.Load() {
	}
}
