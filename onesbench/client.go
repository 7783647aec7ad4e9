package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"repro/pkg/ones/serve"
)

// clients is the number of closed-loop callers: one per core of the
// two-core machine the benchmark was sized on.
const clients = 2

// tagHeader carries the benchmark's request number on all three calls of
// one request, so the traced run's timing middleware can join them.
const tagHeader = "X-Onesbench-Request"

// client drives one daemon over HTTP.
type client struct {
	base string
	http *http.Client
}

func newClient(base string) *client {
	return &client{base: base, http: &http.Client{
		Timeout:   2 * time.Minute,
		Transport: &http.Transport{MaxIdleConnsPerHost: 2 * clients, DisableCompression: true},
	}}
}

// close drops the client's idle keep-alive connections.
func (c *client) close() { c.http.CloseIdleConnections() }

// interval is a stretch of wall-clock time.
type interval struct{ from, to time.Time }

// The three HTTP calls of one request, in order.
const (
	callCreate = iota // POST /v1/runs
	callStream        // GET /v1/runs/{id}/stream
	callResult        // GET /v1/runs/{id}
)

// call is one request as the benchmark sees it.
type call struct {
	calls [3]interval // each HTTP call, from sending it to reading its body
	id    string      // run id
	body  []byte      // GET /v1/runs/{id} response body
}

// latency is POST sent → finished Result read.
func (cl call) latency() time.Duration {
	return cl.calls[callResult].to.Sub(cl.calls[callCreate].from)
}

// run issues one request: POST /v1/runs, follow the run's stream to its
// end line, then GET the finished run.
func (c *client) run(spec serve.RunSpec, tag string) (call, error) {
	payload, err := json.Marshal(spec)
	if err != nil {
		return call{}, err
	}
	var cl call
	cl.calls[callCreate].from = time.Now()
	created, err := c.send(http.MethodPost, "/v1/runs", tag, payload, http.StatusCreated)
	if err != nil {
		return call{}, err
	}
	cl.calls[callCreate].to = time.Now()
	var st struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(created, &st); err != nil || st.ID == "" {
		return call{}, fmt.Errorf("create: bad response %.200q", created)
	}
	cl.id = st.ID
	cl.calls[callStream].from = time.Now()
	if err := c.follow(st.ID, tag); err != nil {
		return call{}, err
	}
	cl.calls[callStream].to = time.Now()
	cl.calls[callResult].from = cl.calls[callStream].to
	if cl.body, err = c.send(http.MethodGet, "/v1/runs/"+st.ID, tag, nil, http.StatusOK); err != nil {
		return call{}, err
	}
	cl.calls[callResult].to = time.Now()
	return cl, nil
}

// send makes one HTTP call and returns its body, failing on any status but
// want.
func (c *client) send(method, path, tag string, payload []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set(tagHeader, tag)
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("%s %s: %w", method, path, err)
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d: %.200s", method, path, resp.StatusCode, body)
	}
	return body, nil
}

// follow reads the run's NDJSON stream until its terminal end line and
// fails unless the run finished "done".
func (c *client) follow(id, tag string) error {
	req, err := http.NewRequest(http.MethodGet, c.base+"/v1/runs/"+id+"/stream", nil)
	if err != nil {
		return err
	}
	req.Header.Set(tagHeader, tag)
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream %s: status %d", id, resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	for {
		line, err := br.ReadBytes('\n')
		if bytes.Contains(line, []byte(`"kind":"end"`)) {
			var end struct {
				Status string `json:"status"`
				Error  string `json:"error"`
			}
			if jerr := json.Unmarshal(line, &end); jerr != nil {
				return fmt.Errorf("stream %s: bad end line: %w", id, jerr)
			}
			if end.Status != serve.StatusDone {
				return fmt.Errorf("stream %s: run ended %s: %s", id, end.Status, end.Error)
			}
			// Drain the body so the connection can be reused.
			_, _ = io.Copy(io.Discard, br)
			return nil
		}
		if err != nil {
			return fmt.Errorf("stream %s: no end line: %w", id, err)
		}
	}
}

// loop runs the closed loop: each of the callers takes the next index,
// issues do(i) and waits for it before taking another. Once more(i) is
// false no index is handed out again; every started request finishes,
// and loop returns how many were started (exactly indices 0..n-1) and the
// time until the last one finished.
func loop(more func(i int) bool, do func(i int)) (n int, elapsed time.Duration) {
	var (
		mu   sync.Mutex
		next int
		done bool
		wg   sync.WaitGroup
	)
	take := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if done || !more(next) {
			done = true
			return 0, false
		}
		next++
		return next - 1, true
	}
	start := time.Now()
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := take(); ok; i, ok = take() {
				do(i)
			}
		}()
	}
	wg.Wait()
	return next, time.Since(start)
}

// sequence hands a generator's requests to concurrent callers, memoizing
// them so that a replay can ask for the same index again.
type sequence struct {
	mu    sync.Mutex
	gen   func(i int) serve.RunSpec
	specs []serve.RunSpec
}

func (s *sequence) at(i int) serve.RunSpec {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.specs) <= i {
		s.specs = append(s.specs, s.gen(len(s.specs)))
	}
	return s.specs[i]
}
