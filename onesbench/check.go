package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"sync"

	"repro/pkg/ones/serve"
)

// reference holds one recorded digest per pool cell, in pool order, for
// the default workload seed's pools (see -record).
//
//go:embed reference/*.txt
var reference embed.FS

// pools are the cold cells whose Result digests are recorded.
var pools = []struct {
	name string
	size int
	spec func(i int) serve.RunSpec
}{
	{"ones-cold", onesPool, onesSpec},
	{"baseline-cold", basePool, baseSpec},
}

// specKey identifies a request by its canonical JSON.
func specKey(sp serve.RunSpec) string {
	b, _ := json.Marshal(sp) // a RunSpec of plain fields always marshals
	return string(b)
}

// checker verifies every response: its structure, and its digest against
// the recorded table or against the digest the same spec produced earlier
// in the run (the warm-mixed set-up captures those).
type checker struct {
	mu       sync.Mutex
	want     map[string]string // spec key → expected digest
	verified map[string]bool   // spec key + digest pairs whose structure passed
	// tails holds, per spec key, the body from its "result" field on of a
	// response that passed, so that a byte-identical repeat (a warm hit)
	// is checked without parsing it again.
	tails map[string][]byte
}

// maxTails bounds the bodies a checker keeps for byte comparison.
const maxTails = 256

func newEmptyChecker() *checker {
	return &checker{want: map[string]string{}, verified: map[string]bool{}, tails: map[string][]byte{}}
}

// newChecker loads the recorded reference digests.
func newChecker() (*checker, error) {
	c := newEmptyChecker()
	for _, p := range pools {
		data, err := reference.ReadFile("reference/" + p.name + ".txt")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(bytes.NewReader(data))
		i := 0
		for sc.Scan() {
			if i >= p.size {
				return nil, fmt.Errorf("reference %s: more than %d digests", p.name, p.size)
			}
			c.want[specKey(p.spec(i))] = strings.TrimSpace(sc.Text())
			i++
		}
		if i != p.size {
			return nil, fmt.Errorf("reference %s: %d digests, want %d", p.name, i, p.size)
		}
	}
	return c, nil
}

// check verifies one GET /v1/runs/{id} body for spec and returns its
// Result digest. A spec with no expected digest yet adopts this one once
// its structure passes, so a later response for the same spec must match
// it.
func (c *checker) check(spec serve.RunSpec, body []byte) (string, error) {
	key := specKey(spec)
	tail := body[max(bytes.Index(body, []byte(`"result"`)), 0):]
	c.mu.Lock()
	want, known := c.want[key]
	prev, repeat := c.tails[key]
	c.mu.Unlock()
	if repeat && bytes.Equal(tail, prev) {
		return want, nil
	}

	digest, result, err := digestOf(body)
	if err != nil {
		return "", err
	}
	if known && want != digest {
		return digest, fmt.Errorf("%s: digest %s, want %s", key, digest, want)
	}
	c.mu.Lock()
	seen := c.verified[key+digest]
	c.mu.Unlock()
	if !seen {
		if err := checkResult(spec, result); err != nil {
			return digest, fmt.Errorf("%s: %w", key, err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !known {
		c.want[key] = digest
	}
	c.verified[key+digest] = true
	if known && len(c.tails) < maxTails {
		c.tails[key] = append([]byte(nil), tail...)
	}
	return digest, nil
}

// digestOf extracts the Result of a finished run and returns the first 16
// hex digits of the SHA-256 of its compact JSON, so the digest does not
// depend on how the daemon indents its responses.
func digestOf(body []byte) (string, []byte, error) {
	var st struct {
		Status string          `json:"status"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(body, &st); err != nil {
		return "", nil, fmt.Errorf("bad run body: %w", err)
	}
	if st.Status != serve.StatusDone || len(st.Result) == 0 {
		return "", nil, fmt.Errorf("run status %q without a result", st.Status)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, st.Result); err != nil {
		return "", nil, err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:8]), buf.Bytes(), nil
}

// displayNames maps scheduler registry names to Result.Scheduler.
var displayNames = map[string]string{
	"ones": "ONES", "fifo": "FIFO", "tiresias": "Tiresias", "optimus": "Optimus", "drl": "DRL",
}

// checkResult is the structural check: the right scheduler, every job
// finished with a finite completion time, nothing truncated.
func checkResult(spec serve.RunSpec, result []byte) error {
	var r struct {
		Scheduler  string  `json:"scheduler"`
		MeanJCT    float64 `json:"mean_jct_s"`
		Truncated  bool    `json:"truncated"`
		Unfinished int     `json:"unfinished"`
		Jobs       []struct {
			JCT float64 `json:"jct_s"`
		} `json:"jobs"`
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(result, &r); err != nil {
		return fmt.Errorf("bad result: %w", err)
	}
	jobs := 120
	switch {
	case spec.Jobs > 0:
		jobs = spec.Jobs
	case spec.Quick:
		jobs = 30
	}
	switch {
	case r.Scheduler != displayNames[spec.Scheduler]:
		return fmt.Errorf("scheduler %q, want %q", r.Scheduler, displayNames[spec.Scheduler])
	case r.Truncated || r.Unfinished != 0:
		return fmt.Errorf("truncated with %d unfinished jobs", r.Unfinished)
	case len(r.Jobs) != jobs:
		return fmt.Errorf("%d jobs, want %d", len(r.Jobs), jobs)
	case !(r.MeanJCT > 0) || math.IsInf(r.MeanJCT, 0):
		return fmt.Errorf("mean JCT %v", r.MeanJCT)
	case spec.RecordEvents != (len(r.Events) > 0):
		return fmt.Errorf("%d events with record_events=%v", len(r.Events), spec.RecordEvents)
	}
	for i, j := range r.Jobs {
		if !(j.JCT > 0) || math.IsInf(j.JCT, 0) {
			return fmt.Errorf("job %d: JCT %v", i, j.JCT)
		}
	}
	return nil
}
