package main

// Load generation shared by serve-open and cluster-closed: running ops
// against a node, checking each result against its reference, and
// folding the per-op records into metrics.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"cendev/internal/serve"
)

// partLen is the length of the parts a measured window splits into, so
// that the seconds of a run a noisy neighbour slowed can be told apart
// (see endToEnd).
const partLen = 2 * time.Second

// partsOf returns how many parts a window of length d has.
func partsOf(d time.Duration) int { return max(1, int((d+partLen/2)/partLen)) }

// opRun is one op's record.
type opRun struct {
	spec            serve.JobSpec
	ref             string        // expected payload digest
	repeat          bool          // resubmits a history spec
	expectHit       bool          // the result cache must answer it
	part            int           // measured-window part, or -1 in warm-up
	at              time.Duration // open loop: due offset from the loop's start
	due, sent, done time.Time
	t               opTimes
	err             error
	digest          string
}

// part is one part of a measured window: its span and the process
// resources used in it.
type part struct {
	start, end time.Time
	use        usage
}

// partStats are one part's ops, reduced.
type partStats struct {
	lat     latencies // from due (or sent) to done; failed ops count as missed
	ops, ok int
	// lastDone is when the part's last successful op finished.
	lastDone time.Time
	part
}

// stretch is one run of ops against a node, reduced to metrics.
type stretch struct {
	parts       []partStats
	late        latencies // generator lateness of measured ops
	submit, get latencies // measured successful ops, per client stage
	// peakRSS is the process's high-water mark since the first node
	// start, read when the window opened, after set-up and warm-up: in a
	// closed loop the store grows with every op, so a later reading would
	// track throughput.
	peakRSS float64
}

// reduce checks every op and folds the measured ones into their parts.
// Latency runs from an op's due time: the time it was scheduled to be
// sent (open loop) or was sent (closed loop).
func reduce(cfg config, out *outcome, runs []opRun, ps []part, peakRSS float64) stretch {
	s := stretch{parts: make([]partStats, len(ps)), peakRSS: peakRSS}
	for k, p := range ps {
		s.parts[k].part = p
	}
	for i := range runs {
		r := &runs[i]
		out.attempted++
		bad := r.err != nil || r.digest != r.ref
		switch {
		case r.err != nil:
			out.fail(cfg.log, "%s job (seed %d): %v", r.spec.Kind, r.spec.Seed, r.err)
		case r.digest != r.ref:
			out.fail(cfg.log, "%s job (seed %d): result digest %.12s, reference %.12s", r.spec.Kind, r.spec.Seed, r.digest, r.ref)
		}
		if r.err == nil && r.t.cached != r.expectHit {
			bad = true
			out.fail(cfg.log, "%s job (seed %d): result-cache hit %v, want %v", r.spec.Kind, r.spec.Seed, r.t.cached, r.expectHit)
		}
		if r.part < 0 {
			continue
		}
		p := &s.parts[r.part]
		p.ops++
		s.late.add(r.sent.Sub(r.due))
		if bad {
			p.lat.failed++
			continue
		}
		p.ok++
		p.lat.add(r.done.Sub(r.due))
		if r.done.After(p.lastDone) {
			p.lastDone = r.done
		}
		s.submit.add(r.t.submit)
		s.get.add(r.t.get)
	}
	return s
}

// overParts returns the values of f over the parts.
func (s stretch) overParts(f func(p partStats) float64) []float64 {
	xs := make([]float64, len(s.parts))
	for k, p := range s.parts {
		xs[k] = f(p)
	}
	return xs
}

// p50 is the run's latency median: the lowest of its parts' medians.
// Interference from other tenants of the host only ever slows a part
// down, so the calmest part is the steadiest reading of the system.
func (s stretch) p50() float64 {
	return slices.Min(s.overParts(func(p partStats) float64 { return p.lat.pct(0.50) }))
}

// goodput is a part's successful ops per second, from its start until
// the later of its end and its last op's completion.
func (p partStats) goodput() float64 {
	end := p.end
	if p.lastDone.After(end) {
		end = p.lastDone
	}
	return float64(p.ok) / end.Sub(p.start).Seconds()
}

// endToEnd fills the end-to-end metrics of a measured stretch; the
// per-op resources are medians over the parts.
func (s stretch) endToEnd(setups []float64) values {
	perOp := func(f func(u usage) float64) float64 {
		return median(s.overParts(func(p partStats) float64 { return f(p.use) / float64(p.ops) }))
	}
	return values{
		"setup_s":         median(setups),
		"cpu_ms_per_op":   perOp(func(u usage) float64 { return ms(u.cpu) }),
		"allocs_per_op":   perOp(func(u usage) float64 { return float64(u.mallocs) }),
		"alloc_mb_per_op": perOp(func(u usage) float64 { return float64(u.bytes) / (1 << 20) }),
		"peak_rss_mb":     s.peakRSS,
	}
}

// opLayers fills the op latency and goodput metrics of an untraced
// stretch: median latency and goodput from the calmest part, the tail
// over the whole window.
func (s stretch) opLayers(v values) {
	var all latencies
	for _, p := range s.parts {
		all.ms = append(all.ms, p.lat.ms...)
		all.failed += p.lat.failed
	}
	v["op.lat_p50_ms"] = s.p50()
	v["op.ops_per_s"] = slices.Max(s.overParts(partStats.goodput))
	v["op.lat_p90_ms"] = all.pct(0.90)
	v["op.lat_p99_ms"] = all.pct(0.99)
}

// use is the process resources of the whole measured window.
func (s stretch) use() usage {
	var u usage
	for _, p := range s.parts {
		u = u.add(p.use)
	}
	return u
}

// clientLayers fills the per-stage metrics a client sees.
func (s stretch) clientLayers(v values) {
	v["serve.submit_ms_p50"] = s.submit.pct(0.50)
	v["serve.submit_ms_p99"] = s.submit.pct(0.99)
	v["serve.result_get_ms_p50"] = s.get.pct(0.50)
}

// checkRefs fills each op's reference digest: history digests for
// repeats, and a fresh scheduler's output for the rest, computed after
// the measured section. corrupt flips the first measured reference.
func checkRefs(runs []opRun, workers int, corrupt bool) error {
	var specs []serve.JobSpec
	var idx []int
	for i := range runs {
		if !runs[i].repeat {
			specs = append(specs, runs[i].spec)
			idx = append(idx, i)
		}
	}
	_, digests, err := reference(specs, workers, false)
	if err != nil {
		return err
	}
	for k, i := range idx {
		runs[i].ref = digests[k]
	}
	if corrupt {
		for i := range runs {
			if runs[i].part >= 0 {
				runs[i].ref = corruptDigest(runs[i].ref)
				break
			}
		}
	}
	return nil
}

// timedStarts starts a node setupRuns times, each over a fresh copy of
// the history in histDir, and returns the start times (seconds) with the
// last node still running. A start is timed until the node answers its
// health check. The peak RSS restarts before the first start, so it
// covers the nodes and not the history fixture built before them.
func timedStarts[N interface {
	url() string
	stop() error
}](cfg config, histDir string, start func(dir string) (N, error)) ([]float64, N, error) {
	var node N
	var setups []float64
	p, err := newPacer()
	if err != nil {
		return nil, node, err
	}
	defer p.close()
	if err := resetPeakRSS(); err != nil {
		return nil, node, err
	}
	for i := 0; i < setupRuns; i++ {
		if i > 0 {
			if err := node.stop(); err != nil {
				return nil, node, err
			}
		}
		runtime.GC() // every start meets the same heap
		dir := filepath.Join(cfg.workDir, fmt.Sprintf("run-%d", i))
		if err := copyTree(histDir, dir); err != nil {
			return nil, node, err
		}
		t0 := time.Now()
		node, err = start(dir)
		if err != nil {
			return nil, node, err
		}
		a := newAPI(node.url(), 1)
		err = a.waitHealthy(p)
		a.close()
		if err != nil {
			return nil, node, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return setups, node, nil
}

// freshCopy copies the history for one more node start.
func freshCopy(cfg config, histDir, name string) (string, error) {
	dir := filepath.Join(cfg.workDir, name)
	return dir, copyTree(histDir, dir)
}

// replayStores times serve.OpenStore over three fresh copies of every
// store directory under histDir — the replay part of a restart — and
// returns the median milliseconds and the records replayed.
func replayStores(cfg config, histDir string) (float64, float64, error) {
	var dirs []string
	err := filepath.WalkDir(histDir, func(path string, d os.DirEntry, err error) error {
		if err == nil && d.IsDir() {
			if m, _ := filepath.Glob(filepath.Join(path, "*.bin")); len(m) > 0 {
				dirs = append(dirs, path)
			}
		}
		return err
	})
	if err != nil {
		return 0, 0, err
	}
	records := 0
	for _, d := range dirs {
		n, err := countRecords(d)
		if err != nil {
			return 0, 0, err
		}
		records += n
	}
	var times []float64
	for i := 0; i < 3; i++ {
		dst, err := freshCopy(cfg, histDir, fmt.Sprintf("replay-%d", i))
		if err != nil {
			return 0, 0, err
		}
		var stores []*serve.Store
		t0 := time.Now()
		for _, d := range dirs {
			rel, _ := filepath.Rel(histDir, d)
			st, err := serve.OpenStore(filepath.Join(dst, rel), serve.DefaultShards)
			if err != nil {
				return 0, 0, err
			}
			stores = append(stores, st)
		}
		times = append(times, ms(time.Since(t0)))
		for _, st := range stores {
			st.Close()
		}
		os.RemoveAll(dst)
	}
	return median(times), float64(records), nil
}

// schedulerCosts times direct serve.Scheduler.Run calls on up to 40
// specs of each kind among runs, one at a time.
func schedulerCosts(runs []opRun, v values) error {
	sched := serve.NewScheduler(nil)
	byKind := map[string][]float64{}
	for _, r := range runs {
		if len(byKind[r.spec.Kind]) >= 40 {
			continue
		}
		t0 := time.Now()
		if _, err := sched.Run(r.spec); err != nil {
			return err
		}
		byKind[r.spec.Kind] = append(byKind[r.spec.Kind], ms(time.Since(t0)))
	}
	for kind, times := range byKind {
		v["scheduler."+kind+"_ms"] = median(times)
	}
	return nil
}
