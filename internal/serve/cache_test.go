package serve

// Tests for the result cache (spec-digest dedup), the conflict state,
// and the ?state= filter surface.

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
)

// TestResultCacheDedup: an identical spec+seed submitted after the first
// finished must be served from the cache — no second execution, state
// done straight from POST, byte-identical payload, and a cache-hit
// metric.
func TestResultCacheDedup(t *testing.T) {
	var calls atomic.Int64
	opts := hookOpts(func(spec JobSpec) (json.RawMessage, error) {
		calls.Add(1)
		return json.RawMessage(`{"verdict":"blocked"}`), nil
	})
	_, ts := startServer(t, opts)

	spec := JobSpec{Kind: KindCenProbe, Seed: 9}
	id1, _ := submit(t, ts, spec)
	st1 := waitDone(t, ts, id1)
	if st1.State != StateDone {
		t.Fatalf("first run: state %s (%s)", st1.State, st1.Error)
	}
	if st1.Digest == "" {
		t.Fatal("first run: no digest recorded")
	}

	id2, resp := submit(t, ts, spec)
	_ = resp
	st2 := waitDone(t, ts, id2)
	if st2.State != StateDone {
		t.Fatalf("cached run: state %s (%s)", st2.State, st2.Error)
	}
	if st2.Digest != st1.Digest {
		t.Fatalf("digest diverged: %s vs %s", st1.Digest, st2.Digest)
	}
	if got, want := calls.Load(), int64(1); got != want {
		t.Fatalf("executor ran %d times, want %d (second submission must hit the cache)", got, want)
	}
	if a, b := fetchResult(t, ts, id1), fetchResult(t, ts, id2); string(a) != string(b) {
		t.Fatalf("cached payload diverged: %s vs %s", a, b)
	}

	// A different tenant with the same measurement spec also hits: tenant
	// is excluded from the canonical key.
	spec.Tenant = "other"
	id3, _ := submit(t, ts, spec)
	if st := waitDone(t, ts, id3); st.State != StateDone {
		t.Fatalf("other-tenant cached run: state %s", st.State)
	}
	if calls.Load() != 1 {
		t.Fatalf("executor ran %d times; tenant must not bust the cache", calls.Load())
	}
	// A different seed misses: the seed is part of the result function.
	spec.Seed = 10
	id4, _ := submit(t, ts, spec)
	waitDone(t, ts, id4)
	if calls.Load() != 2 {
		t.Fatalf("executor ran %d times, want 2 (new seed must execute)", calls.Load())
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mraw, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(mraw), "censerved_cache_hits 2") {
		t.Fatalf("/metrics missing censerved_cache_hits 2:\n%s", mraw)
	}
}

// TestResultCacheSurvivesRestart: the cache is rebuilt from the store at
// startup, so dedup works across daemon restarts.
func TestResultCacheSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	hook := func(spec JobSpec) (json.RawMessage, error) {
		calls.Add(1)
		return json.RawMessage(`{"v":1}`), nil
	}
	opts := hookOpts(hook)
	opts.StoreDir = dir
	srv, ts := startServer(t, opts)
	spec := JobSpec{Kind: KindCenProbe, Seed: 4}
	id, _ := submit(t, ts, spec)
	waitDone(t, ts, id)
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}

	opts2 := hookOpts(hook)
	opts2.StoreDir = dir
	_, ts2 := startServer(t, opts2)
	id2, _ := submit(t, ts2, spec)
	if st := waitDone(t, ts2, id2); st.State != StateDone {
		t.Fatalf("post-restart run: state %s", st.State)
	}
	if calls.Load() != 1 {
		t.Fatalf("executor ran %d times; restart must not lose the cache", calls.Load())
	}
}

// TestResultCacheKeepsScenarioAcrossRestart: the scenario is part of a
// tomography spec's cache key, so it must survive the store round trip.
// After a restart, a scenario-less spec with the same seed is a different
// job and runs; the one-scenario spec is still answered from the cache.
func TestResultCacheKeepsScenarioAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	hook := func(spec JobSpec) (json.RawMessage, error) {
		calls.Add(1)
		return json.RawMessage(fmt.Sprintf(`{"scenario":%q}`, spec.Scenario)), nil
	}
	opts := hookOpts(hook)
	opts.StoreDir = dir
	srv, ts := startServer(t, opts)
	one := JobSpec{Kind: KindTomography, Scenario: "two-vantage-exact", Seed: 5}
	id1, _ := submit(t, ts, one)
	waitDone(t, ts, id1)
	if err := srv.Drain(); err != nil {
		t.Fatal(err)
	}

	opts2 := hookOpts(hook)
	opts2.StoreDir = dir
	_, ts2 := startServer(t, opts2)
	all := JobSpec{Kind: KindTomography, Seed: 5}
	id, _ := submit(t, ts2, all)
	if st := waitDone(t, ts2, id); st.State != StateDone {
		t.Fatalf("scenario-less run: state %s (%s)", st.State, st.Error)
	}
	if got := string(fetchResult(t, ts2, id)); got != `{"scenario":""}` {
		t.Fatalf("scenario-less spec served %s, the one-scenario payload", got)
	}
	if calls.Load() != 2 {
		t.Fatalf("executor ran %d times, want 2 (the scenario-less spec must execute)", calls.Load())
	}
	id3, _ := submit(t, ts2, one)
	waitDone(t, ts2, id3)
	if calls.Load() != 2 {
		t.Fatalf("executor ran %d times; the one-scenario spec must still hit the cache", calls.Load())
	}
}

// scriptedBackend exercises the Backend seam directly.
type scriptedBackend struct {
	fn func(Job) (ExecResult, error)
}

func (b scriptedBackend) Execute(j Job) (ExecResult, error) { return b.fn(j) }

// TestConflictStateTerminal: a Conflict-classified error must land the
// job in StateConflict — terminal, never retried, 500 from the result
// endpoint, visible under ?state=conflict, counted in the conflict
// metric.
func TestConflictStateTerminal(t *testing.T) {
	var calls atomic.Int64
	opts := hookOpts(nil)
	opts.RunHook = nil
	opts.Backend = scriptedBackend{fn: func(j Job) (ExecResult, error) {
		calls.Add(1)
		return ExecResult{}, Conflict(fmt.Errorf("replica digest mismatch: node-b disagrees"))
	}}
	_, ts := startServer(t, opts)

	id, _ := submit(t, ts, JobSpec{Kind: KindCenProbe})
	st := waitDone(t, ts, id)
	if st.State != StateConflict {
		t.Fatalf("state = %s, want conflict", st.State)
	}
	if calls.Load() != 1 {
		t.Fatalf("executor ran %d times; conflicts must not retry", calls.Load())
	}
	if !strings.Contains(st.Error, "digest mismatch") {
		t.Fatalf("status error %q lost the mismatch detail", st.Error)
	}

	resp, err := http.Get(ts.URL + "/v1/results/" + id)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("GET /v1/results on conflicted job = %d, want 500", resp.StatusCode)
	}

	lresp, err := http.Get(ts.URL + "/v1/jobs?state=conflict")
	if err != nil {
		t.Fatal(err)
	}
	defer lresp.Body.Close()
	var jr jobsResponse
	if err := json.NewDecoder(lresp.Body).Decode(&jr); err != nil {
		t.Fatal(err)
	}
	if len(jr.Jobs) != 1 || jr.Jobs[0].ID != id {
		t.Fatalf("?state=conflict returned %+v, want exactly job %s", jr.Jobs, id)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	mraw, _ := io.ReadAll(mresp.Body)
	if !strings.Contains(string(mraw), `censerved_jobs_conflict_total{kind="cenprobe"} 1`) {
		t.Fatalf("/metrics missing conflict counter:\n%s", mraw)
	}
}

// TestConflictBeatsTransient: a conflict wrapped in Transient still
// hard-fails — divergence is durable; retrying is never the answer.
func TestConflictBeatsTransient(t *testing.T) {
	var calls atomic.Int64
	opts := hookOpts(nil)
	opts.RunHook = nil
	opts.Backend = scriptedBackend{fn: func(j Job) (ExecResult, error) {
		calls.Add(1)
		return ExecResult{}, Transient(Conflict(errors.New("diverged")))
	}}
	_, ts := startServer(t, opts)
	id, _ := submit(t, ts, JobSpec{Kind: KindCenProbe})
	if st := waitDone(t, ts, id); st.State != StateConflict {
		t.Fatalf("state = %s, want conflict", st.State)
	}
	if calls.Load() != 1 {
		t.Fatalf("executor ran %d times, want 1", calls.Load())
	}
}

// TestJobsStateFilter: every state is a valid ?state= filter; unknown
// values get a 400 that names the valid set.
func TestJobsStateFilter(t *testing.T) {
	_, ts := startServer(t, hookOpts(func(spec JobSpec) (json.RawMessage, error) {
		return json.RawMessage(`{}`), nil
	}))
	id, _ := submit(t, ts, JobSpec{Kind: KindCenProbe})
	waitDone(t, ts, id)

	for _, state := range []string{"", "queued", "running", "done", "failed", "dead", "conflict"} {
		resp, err := http.Get(ts.URL + "/v1/jobs?state=" + state)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("?state=%s = %d, want 200", state, resp.StatusCode)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/jobs?state=bogus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("?state=bogus = %d, want 400", resp.StatusCode)
	}
	var er errorResponse
	if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"bogus", "queued", "dead", "conflict"} {
		if !strings.Contains(er.Error, want) {
			t.Errorf("400 message %q missing %q", er.Error, want)
		}
	}
}
