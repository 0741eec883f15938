package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/jobs"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// apiClient is the experiments' one client of the hfserve REST API: the
// only place that issues POST /v1/jobs on their behalf and the only
// decoder of the submit, status, list and waterfall bodies.
type apiClient struct {
	base string
	hc   *http.Client
}

func newAPIClient(addr string) *apiClient {
	return &apiClient{base: "http://" + addr, hc: &http.Client{Timeout: 30 * time.Second}}
}

// hangUp closes the client's idle keep-alive connections. Call it before
// draining the server: a burst leaves connections the transport dialed
// but never used, and net/http's graceful Shutdown waits out the 5 s it
// grants such a connection to send its first request.
func (c *apiClient) hangUp() { c.hc.CloseIdleConnections() }

// Backpressure handling of submit: a 429 is retried after the server's
// Retry-After, capped at retryCap so an experiment's burst keeps
// pressing on the queue, and given up on after max429 bounces.
const (
	retryCap = 50 * time.Millisecond
	max429   = 400
)

// get fetches path, decodes a 200 body into v (nil discards it) and
// returns the HTTP status; any other status surfaces the server's error
// body.
func (c *apiClient) get(path string, v any) (int, error) {
	resp, err := c.hc.Get(c.base + path)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return resp.StatusCode, apiError("GET "+path, resp)
	}
	if v == nil {
		return resp.StatusCode, nil
	}
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// apiError renders a non-2xx answer with the server's ErrorResponse text.
func apiError(op string, resp *http.Response) error {
	var e service.ErrorResponse
	_ = json.NewDecoder(resp.Body).Decode(&e) // a bodiless error still has its status
	return fmt.Errorf("%s: HTTP %d (%s)", op, resp.StatusCode, e.Error)
}

// submit POSTs spec, absorbing 429 backpressure, and returns the
// accepted response plus how many 429 bounces it took.
func (c *apiClient) submit(spec jobs.Spec) (out service.SubmitResponse, rejected int, err error) {
	body, err := json.Marshal(spec)
	if err != nil {
		return out, 0, err
	}
	for {
		resp, err := c.hc.Post(c.base+"/v1/jobs", "application/json", bytes.NewReader(body))
		if err != nil {
			return out, rejected, err
		}
		switch {
		case resp.StatusCode == http.StatusTooManyRequests && rejected < max429:
			rejected++
			wait := retryCap
			if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil {
				wait = min(wait, time.Duration(secs)*time.Second)
			}
			resp.Body.Close()
			time.Sleep(wait)
			continue
		case resp.StatusCode >= 300:
			err = apiError("POST /v1/jobs", resp)
		default:
			err = json.NewDecoder(resp.Body).Decode(&out)
		}
		resp.Body.Close()
		return out, rejected, err
	}
}

func (c *apiClient) status(id string) (st jobs.Status, err error) {
	_, err = c.get("/v1/jobs/"+id, &st)
	return st, err
}

// awaitTerminal polls id until its state is terminal, returning the
// final status, or fails once deadline passes.
func (c *apiClient) awaitTerminal(id string, deadline time.Time) (jobs.Status, error) {
	for {
		st, err := c.status(id)
		if err != nil || st.State.Terminal() {
			return st, err
		}
		if time.Now().After(deadline) {
			return st, fmt.Errorf("job %s stuck in state %s", id, st.State)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// poll retries ok until it holds or within elapses.
func poll(within time.Duration, what string, ok func() bool) error {
	for deadline := time.Now().Add(within); !ok(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: not within %v", what, within)
		}
	}
	return nil
}

// awaitCached polls the cache probe until hash is in this replica's
// result cache.
func (c *apiClient) awaitCached(hash string, within time.Duration) error {
	return poll(within, "hash "+hash[:12]+" cached on "+c.base, func() bool {
		code, _ := c.get("/v1/cache/"+hash, nil) // 202/404/unreachable all mean "not yet"
		return code == http.StatusOK
	})
}

// awaitReady polls /readyz until the replica reports ready.
func (c *apiClient) awaitReady(within time.Duration) error {
	return poll(within, c.base+" ready", func() bool {
		code, _ := c.get("/readyz", nil)
		return code == http.StatusOK
	})
}

// count returns how many jobs this replica holds in the given state.
func (c *apiClient) count(state jobs.State) (int, error) {
	var page struct {
		Total int `json:"total"`
	}
	_, err := c.get("/v1/jobs?limit=1&status="+string(state), &page)
	return page.Total, err
}

func (c *apiClient) waterfall(id string) (wf service.WaterfallResponse, err error) {
	_, err = c.get("/v1/jobs/"+id+"/trace", &wf)
	return wf, err
}

// flight fetches the replica's last flight-recorder dump.
func (c *apiClient) flight() (dump telemetry.FlightDump, err error) {
	_, err = c.get("/v1/debug/flight", &dump)
	return dump, err
}
