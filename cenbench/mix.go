package main

import (
	"math/rand"
	"sync"

	"cendev/internal/experiments"
	"cendev/internal/serve"
)

// fuzzStrategy is the one CenFuzz strategy the small-job mix runs: the
// one the study's §6.3 per-method evasion rates come from. Its six
// permutations keep a cenfuzz job as small as the mix's other kinds;
// the full catalog of 25 strategies would dominate every run.
const fuzzStrategy = "Get Word Alt."

// mix generates the small jobs serve-open and cluster-closed submit:
// single CenTraces, one-device CenProbe grabs, one-scenario tomography,
// and one-strategy CenFuzz runs, against targets drawn from the world.
// Every spec gets its own seed, so no two generated specs share a
// result-cache key.
type mix struct {
	rng       *rand.Rand
	endpoints []experiments.EndpointInfo
	devices   []string
	scenarios []string
	seedBase  int64
	next      int64
	// kinds is what is left of the current block of four draws, one of
	// each kind in a seeded order.
	kinds []int
}

func newMix(seed int64) *mix {
	w := experiments.BuildWorld()
	m := &mix{
		rng:       rand.New(rand.NewSource(seed)),
		endpoints: w.Endpoints,
		scenarios: experiments.CrossValScenarioNames(),
		// Job seeds of different workload seeds never overlap.
		seedBase: seed << 32,
	}
	for _, d := range w.Devices {
		if d.Device.Addr.IsValid() { // some devices have no management address
			m.devices = append(m.devices, d.Device.Addr.String())
		}
	}
	return m
}

// spec draws the next job, one of the four small kinds with equal
// shares: nothing measured favours one kind, and equal shares weigh each
// kind the same in the per-op metrics. Every block of four draws holds
// each kind once, so the shares are exact in any run, whatever the seed.
func (m *mix) spec() serve.JobSpec {
	m.next++
	s := serve.JobSpec{Seed: m.seedBase + m.next, Tenant: "bench"}
	ep := m.endpoints[m.rng.Intn(len(m.endpoints))]
	domains := experiments.TestDomainsFor(ep.Country)
	if len(m.kinds) == 0 {
		m.kinds = m.rng.Perm(4)
	}
	kind := m.kinds[0]
	m.kinds = m.kinds[1:]
	switch kind {
	case 0:
		s.Kind = serve.KindCenTrace
		s.Endpoint, s.Domain = ep.Host.ID, domains[m.rng.Intn(len(domains))]
		s.Protocol = []string{"http", "https"}[m.rng.Intn(2)]
	case 1:
		s.Kind = serve.KindCenProbe
		s.Addrs = []string{m.devices[m.rng.Intn(len(m.devices))]}
	case 2:
		s.Kind = serve.KindTomography
		s.Scenario = m.scenarios[m.rng.Intn(len(m.scenarios))]
	default:
		s.Kind = serve.KindCenFuzz
		s.Endpoint, s.Domain = ep.Host.ID, domains[m.rng.Intn(len(domains))]
		s.Strategy = fuzzStrategy
	}
	s.Normalize()
	return s
}

// specs draws n jobs.
func (m *mix) specs(n int) []serve.JobSpec {
	out := make([]serve.JobSpec, n)
	for i := range out {
		out[i] = m.spec()
	}
	return out
}

// reference runs every spec through a fresh standalone scheduler — the
// executor a censerved node uses — and returns the payload digests, the
// reference every served result is compared with, and the payloads too
// when keep is set.
func reference(specs []serve.JobSpec, workers int, keep bool) ([][]byte, []string, error) {
	sched := serve.NewScheduler(nil)
	payloads := make([][]byte, len(specs))
	digests := make([]string, len(specs))
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < len(specs); i += workers {
				p, err := sched.Run(specs[i])
				if err != nil {
					errs[w] = err
					return
				}
				digests[i] = serve.PayloadDigest(p)
				if keep {
					payloads[i] = p
				}
			}
		}(w)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, nil, err
		}
	}
	return payloads, digests, nil
}
