package main

// The cluster-closed workload: one client submits small jobs with
// distinct seeds to a coordinator with two workers, waiting for each job
// before sending the next. Placement, the long-poll lease, two
// re-executions, worker result persistence, the completion digest
// compare and the replica fetch do most of the work; the result cache
// does none.

import (
	"path/filepath"
	"runtime"
	"time"

	"cendev/internal/obs"
	"cendev/internal/serve"
)

// closedLoop runs ops back to back from one client: a warm-up, then a
// measured window in parts. Each op's latency counts from when it was
// sent; a part ends with the first op that starts after its end. It
// also returns the process's peak RSS as the window opened.
func closedLoop(url string, m *mix, window time.Duration, tr *tracer) ([]opRun, []part, float64, error) {
	a := newAPI(url, 1)
	defer a.close()
	p, err := newPacer()
	if err != nil {
		return nil, nil, 0, err
	}
	defer p.close()
	var runs []opRun
	var ps []part
	var u usage
	var peak float64
	next := time.Now().Add(warmup) // when the next part begins
	for i := 0; ; i++ {
		now := time.Now()
		if !now.Before(next) {
			use := readUsage()
			if k := len(ps); k > 0 {
				ps[k-1].end, ps[k-1].use = now, use.sub(u)
			}
			if len(ps) == partsOf(window) {
				break
			}
			if len(ps) == 0 {
				if peak, err = peakRSSMB(); err != nil {
					return nil, nil, 0, err
				}
			}
			ps = append(ps, part{start: now})
			u, next = use, now.Add(window/time.Duration(partsOf(window)))
		}
		r := opRun{spec: m.spec(), part: len(ps) - 1, due: now, sent: now}
		root := tr.start("cluster.op", i, 0)
		var payload []byte
		payload, r.t, r.err = a.op(p, r.spec, tr, i, root)
		r.done = time.Now()
		tr.end(root)
		if r.err == nil {
			r.digest = serve.PayloadDigest(payload)
		}
		runs = append(runs, r)
	}
	return runs, ps, peak, nil
}

func runClusterClosed(cfg config) (values, outcome, error) {
	out := outcome{correct: true}
	workers := runtime.NumCPU()
	m := newMix(cfg.seed)
	h, err := newHistory(m, workers)
	if err != nil {
		return nil, out, err
	}
	histDir := filepath.Join(cfg.workDir, "history")
	if err := h.writeCluster(newClusterDirs(histDir)); err != nil {
		return nil, out, err
	}
	start := func(reg *obs.Registry) func(string) (*clusterNode, error) {
		return func(dir string) (*clusterNode, error) { return startCluster(newClusterDirs(dir), reg) }
	}
	setups, node, err := timedStarts(cfg, histDir, start(nil))
	if err != nil {
		return nil, out, err
	}

	// measure runs the closed loop against node and stops it.
	measure := func(node *clusterNode, window time.Duration, tr *tracer) (stretch, []opRun, error) {
		runs, ps, peak, err := closedLoop(node.url(), m, window, tr)
		if stopErr := node.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return stretch{}, nil, err
		}
		if err := checkRefs(runs, workers, cfg.corruptRef); err != nil {
			return stretch{}, nil, err
		}
		return reduce(cfg, &out, runs, ps, peak), runs, nil
	}

	if !cfg.trace {
		s, _, err := measure(node, cfg.seconds, nil)
		if err != nil {
			return nil, out, err
		}
		return s.endToEnd(setups), out, nil
	}

	half := cfg.seconds / 2
	base, _, err := measure(node, half, nil)
	if err != nil {
		return nil, out, err
	}
	reg, tr := obs.NewRegistry(), newTracer()
	dir, err := freshCopy(cfg, histDir, "traced")
	if err != nil {
		return nil, out, err
	}
	tnode, err := start(reg)(dir)
	if err != nil {
		return nil, out, err
	}
	s, runs, err := measure(tnode, half, tr)
	if err != nil {
		return nil, out, err
	}
	v := layerValues()
	v["runtime.gc_cpu_fraction"] = s.use().gcFraction()
	v["obs.overhead_ratio"] = s.p50() / base.p50()
	base.opLayers(v)
	s.clientLayers(v)
	v["cluster.fetch_ms_p50"] = s.get.pct(0.50)
	jobs := float64(len(runs))
	leases := float64(counter(reg, "censerved_cluster_leases_total"))
	v["cluster.leases_per_job"] = leases / jobs
	v["cluster.pulls_per_lease"] = float64(counter(reg, "censerved_cluster_pulls_total")) / leases
	v["cluster.steals"] = float64(counter(reg, "censerved_cluster_steals_total"))
	v["cluster.conflicts"] = float64(counter(reg, "censerved_cluster_conflicts_total"))
	if v["cluster.conflicts"] != 0 {
		out.fail(cfg.log, "%v replica digest conflicts", v["cluster.conflicts"])
	}
	v["simnet.packets_per_op"] = float64(counter(reg, "simnet_packets_forwarded_total")) / jobs
	v["centrace.probes_per_op"] = float64(counter(reg, "centrace_probes_total")) / jobs
	v["cenfuzz.perms_per_op"] = float64(counter(reg, "cenfuzz_perms_total")) / jobs
	if v["store.replay_ms"], v["store.records_replayed"], err = replayStores(cfg, histDir); err != nil {
		return nil, out, err
	}
	if err := schedulerCosts(runs, v); err != nil {
		return nil, out, err
	}
	return v, out, finishTrace(cfg, tr)
}
