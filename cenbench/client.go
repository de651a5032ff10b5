package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"

	"cendev/internal/serve"
)

// pollEvery is how often a client asks whether its job is done.
const pollEvery = 500 * time.Microsecond

// api is a censerved HTTP client with a bounded connection pool.
type api struct {
	base string
	hc   *http.Client
}

func newAPI(base string, conns int) *api {
	return &api{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}}
}

func (a *api) close() { a.hc.CloseIdleConnections() }

// get fetches path and returns the status code and body.
func (a *api) get(path string) (int, []byte, error) {
	resp, err := a.hc.Get(a.base + path)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// opTimes are one op's client-side stage durations.
type opTimes struct {
	submit, get time.Duration
	// cached is true when the submission was answered from the result
	// cache (admitted straight to done).
	cached bool
}

// op runs one job the way a user would: POST it, poll its status until
// it is terminal, then GET its result bytes. Any refusal, 5xx, or
// non-done terminal state is an error.
func (a *api) op(p *pacer, spec serve.JobSpec, tr *tracer, opID, parent int) ([]byte, opTimes, error) {
	var t opTimes
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, t, err
	}
	t0 := time.Now()
	sid := tr.start("serve.submit", opID, parent)
	resp, err := a.hc.Post(a.base+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, t, err
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	tr.end(sid)
	t.submit = time.Since(t0)
	if err != nil {
		return nil, t, err
	}
	if resp.StatusCode != http.StatusAccepted {
		return nil, t, fmt.Errorf("submit: status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	var sub struct {
		ID    string         `json:"id"`
		State serve.JobState `json:"state"`
	}
	if err := json.Unmarshal(raw, &sub); err != nil {
		return nil, t, fmt.Errorf("submit: %w", err)
	}
	t.cached = sub.State == serve.StateDone

	wid := tr.start("serve.wait", opID, parent)
	state := sub.State
	for !state.Terminal() {
		p.sleep(pollEvery)
		code, raw, err := a.get("/v1/jobs/" + sub.ID)
		if err != nil {
			return nil, t, err
		}
		if code != http.StatusOK {
			return nil, t, fmt.Errorf("status: %d: %s", code, bytes.TrimSpace(raw))
		}
		var st serve.JobStatus
		if err := json.Unmarshal(raw, &st); err != nil {
			return nil, t, fmt.Errorf("status: %w", err)
		}
		state = st.State
	}
	tr.end(wid)
	if state != serve.StateDone {
		return nil, t, fmt.Errorf("job %s ended %s", sub.ID, state)
	}

	t2 := time.Now()
	gid := tr.start("serve.result_get", opID, parent)
	code, payload, err := a.get("/v1/results/" + sub.ID)
	tr.end(gid)
	t.get = time.Since(t2)
	if err != nil {
		return nil, t, err
	}
	if code != http.StatusOK {
		return nil, t, fmt.Errorf("result: status %d: %s", code, bytes.TrimSpace(payload))
	}
	return payload, t, nil
}

// waitHealthy polls /healthz until the node answers ok.
func (a *api) waitHealthy(p *pacer) error {
	deadline := time.Now().Add(10 * time.Second)
	for {
		code, _, err := a.get("/healthz")
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("node at %s not healthy: status %d, %v", a.base, code, err)
		}
		p.sleep(pollEvery)
	}
}
