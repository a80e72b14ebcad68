package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lbcast/internal/eval"
	"lbcast/internal/flood"
)

// newTestServer boots a Server on an httptest listener and registers a
// drain-on-cleanup so scheduler goroutines never outlive the test.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return s, ts
}

// postDecide submits one decision request and returns status and body.
func postDecide(t *testing.T, base, client string, req DecideRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	hr, err := http.NewRequest(http.MethodPost, base+"/v1/decide", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hr.Header.Set("X-Client-ID", client)
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// independentOutcome runs req as its own library Session — fresh graph
// cache, fresh adversary state — and returns the wire projection. This is
// the reference side of the byte-identity contract.
func independentOutcome(t *testing.T, req DecideRequest) OutcomeJSON {
	t.Helper()
	wk, err := buildWork(newGraphCache(4), &req)
	if err != nil {
		t.Fatalf("buildWork(%+v): %v", req, err)
	}
	spec := eval.Spec{
		G:          wk.base.G,
		F:          wk.base.F,
		T:          wk.base.T,
		Algorithm:  wk.base.Algorithm,
		InputSlab:  wk.inst.InputSlab,
		Byzantine:  wk.inst.Byzantine,
		Rounds:     wk.base.Rounds,
		FullBudget: wk.base.FullBudget,
	}
	sess, err := eval.NewSession(spec)
	if err != nil {
		t.Fatal(err)
	}
	out, err := sess.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return outcomeJSON(out)
}

// outcomeBytes extracts the outcome object from a daemon response body and
// compacts it, so it can be byte-compared against a compact local encoding
// of the same struct type (field order is fixed by the type; JSON maps are
// key-sorted by encoding/json on both sides).
func outcomeBytes(t *testing.T, respBody []byte) []byte {
	t.Helper()
	var wire struct {
		Outcome json.RawMessage `json:"outcome"`
		Batch   BatchInfo       `json:"batch"`
	}
	if err := json.Unmarshal(respBody, &wire); err != nil {
		t.Fatalf("response %s: %v", respBody, err)
	}
	if wire.Batch.Size < 1 {
		t.Errorf("batch size %d < 1", wire.Batch.Size)
	}
	var buf bytes.Buffer
	if err := json.Compact(&buf, wire.Outcome); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// parityRequest builds the i-th request of the e2e mix: two topologies,
// rotating fault strategies (every fourth request benign, so the group mixes
// wholesale plan replay with masked and delta replay), varied inputs.
func parityRequest(i int) DecideRequest {
	req := DecideRequest{Graph: "figure1a", F: 1}
	if i%2 == 1 {
		req.Graph = "figure1b"
		req.F = 2
	}
	req.InputPattern = []int{i % 2, (i / 2) % 2, 1}
	switch i % 4 {
	case 0: // benign: rides the compiled-plan replay path
	case 1:
		req.Faults = []FaultSpec{{Node: i % 5, Strategy: "silent"}}
	case 2:
		req.Faults = []FaultSpec{{Node: i % 5, Strategy: "tamper", Seed: int64(i)}}
	case 3:
		req.Faults = []FaultSpec{{Node: i % 5, Strategy: "forge", Seed: int64(3 * i)}}
	}
	return req
}

// TestDecideParityConcurrentClients is the end-to-end contract test: 32
// concurrent clients, mixed graphs and fault patterns, every response's
// outcome byte-identical to an independent library Session of the same
// request, and the /metrics exposition consistent with the traffic.
func TestDecideParityConcurrentClients(t *testing.T) {
	const clients = 32
	const perClient = 2
	before := flood.ReadPlanStats()
	_, ts := newTestServer(t, Config{
		Workers:  4,
		MaxBatch: 16,
		Linger:   5 * time.Millisecond,
	})

	type reply struct {
		idx    int
		status int
		body   []byte
	}
	replies := make(chan reply, clients*perClient)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				i := c*perClient + k
				status, body := postDecide(t, ts.URL, fmt.Sprintf("client-%02d", c), parityRequest(i))
				replies <- reply{idx: i, status: status, body: body}
			}
		}(c)
	}
	wg.Wait()
	close(replies)

	got := 0
	for r := range replies {
		got++
		if r.status != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", r.idx, r.status, r.body)
		}
		want, err := json.Marshal(independentOutcome(t, parityRequest(r.idx)))
		if err != nil {
			t.Fatal(err)
		}
		if have := outcomeBytes(t, r.body); !bytes.Equal(have, want) {
			t.Errorf("request %d: daemon outcome diverges from independent session\n daemon: %s\n  indep: %s", r.idx, have, want)
		}
	}
	if got != clients*perClient {
		t.Fatalf("got %d replies, want %d", got, clients*perClient)
	}

	// The mix must have exercised every replay tier: benign requests
	// replay the shared plan wholesale, crash faults replay masked plans
	// (counted as replay sessions), and value faults replay the benign
	// plan's untainted delta fragment.
	after := flood.ReadPlanStats()
	if after.ReplaySessions <= before.ReplaySessions {
		t.Error("no compiled-plan replay sessions recorded for benign traffic")
	}
	if after.MaskedCompiles <= before.MaskedCompiles {
		t.Error("no masked plans compiled for crash-faulty traffic")
	}
	if after.DeltaReplaySessions <= before.DeltaReplaySessions {
		t.Error("no delta replay sessions recorded for value-faulty traffic")
	}

	// The exposition must reconcile with the traffic just served.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	expo, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	text := string(expo)
	for _, want := range []string{
		fmt.Sprintf("lbcastd_decisions_total %d", clients*perClient),
		fmt.Sprintf("lbcastd_batch_occupancy_sum %d", clients*perClient),
		"lbcastd_batches_failed_total 0",
		"lbcastd_graphs_cached 2",
		`lbcastd_requests_total{client="client-00",result="accepted"} 2`,
		`lbcastd_client_decisions_total{client="client-31"} 2`,
		"lbcastd_plan_masked_compiles_total",
		"lbcastd_plan_delta_replay_sessions_total",
		"lbcastd_replay_hit_rate",
		"lbcastd_churn_events_total",
		"lbcastd_plan_invalidations_total",
		"lbcastd_run_pool_hits_total",
		"lbcastd_run_pool_misses_total",
		"lbcastd_allocs_per_decision",
		"lbcastd_gc_pause_seconds_total",
		"lbcastd_gc_cycles_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition missing %q", want)
		}
	}
}

// TestPackingMergesCanonicalGraphs pins the packing key's canonicalization:
// "figure1b" and "circulant:8:1,2" are the same topology under two spec
// strings, so two concurrent requests for them land in one executed group.
func TestPackingMergesCanonicalGraphs(t *testing.T) {
	_, ts := newTestServer(t, Config{
		Workers:  1,
		MaxBatch: 2, // the second request flushes the group by size
		Linger:   10 * time.Second,
	})
	specs := []string{"figure1b", "circulant:8:1,2"}
	sizes := make(chan int, len(specs))
	var wg sync.WaitGroup
	for i, g := range specs {
		wg.Add(1)
		go func(i int, g string) {
			defer wg.Done()
			status, body := postDecide(t, ts.URL, "alias", DecideRequest{
				Graph: g, F: 2, InputPattern: []int{i % 2, 1},
			})
			if status != http.StatusOK {
				t.Errorf("%s: status %d: %s", g, status, body)
				sizes <- 0
				return
			}
			var resp DecideResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Error(err)
			}
			sizes <- resp.Batch.Size
		}(i, g)
	}
	wg.Wait()
	close(sizes)
	for size := range sizes {
		if size != 2 {
			t.Errorf("batch size %d, want 2 (canonical specs should pack together)", size)
		}
	}
}

// TestAdmissionBackpressureAndDrain drives the quota and queue ceilings to
// their 429s while requests linger, then drains: lingering requests flush
// and decide, post-drain requests get 503, and /healthz flips to draining.
func TestAdmissionBackpressureAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Config{
		Workers:     1,
		MaxBatch:    64,
		Linger:      time.Minute, // requests sit in the forming group until drain
		MaxPending:  2,
		ClientQuota: 1,
	})
	waitDepth := func(want int) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for s.admit.depth() != want {
			if time.Now().After(deadline) {
				t.Fatalf("queue depth stuck at %d, want %d", s.admit.depth(), want)
			}
			time.Sleep(time.Millisecond)
		}
	}
	req := DecideRequest{Graph: "figure1a", F: 1, InputPattern: []int{1, 0}}
	type reply struct {
		status int
		body   []byte
	}
	pending := make(chan reply, 2)
	submit := func(client string) {
		go func() {
			status, body := postDecide(t, ts.URL, client, req)
			pending <- reply{status, body}
		}()
	}

	submit("alice")
	waitDepth(1)
	if status, body := postDecide(t, ts.URL, "alice", req); status != http.StatusTooManyRequests {
		t.Fatalf("second alice request: status %d, want 429: %s", status, body)
	} else if !strings.Contains(string(body), "quota") {
		t.Errorf("quota rejection body %s should name the quota", body)
	}
	submit("bob")
	waitDepth(2)
	if status, body := postDecide(t, ts.URL, "carol", req); status != http.StatusTooManyRequests {
		t.Fatalf("over-capacity request: status %d, want 429: %s", status, body)
	} else if !strings.Contains(string(body), "queue full") {
		t.Errorf("capacity rejection body %s should name the full queue", body)
	}

	// Drain: the forming group flushes, both lingering requests decide.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("second drain not idempotent: %v", err)
	}
	for i := 0; i < 2; i++ {
		r := <-pending
		if r.status != http.StatusOK {
			t.Errorf("lingering request: status %d after drain: %s", r.status, r.body)
		}
	}
	if status, body := postDecide(t, ts.URL, "dave", req); status != http.StatusServiceUnavailable {
		t.Errorf("post-drain request: status %d, want 503: %s", status, body)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || health.Status != "draining" {
		t.Errorf("healthz during drain: status=%d body=%+v, want 503/draining", resp.StatusCode, health)
	}
}

// TestSSEStream requests a decision over server-sent events and checks the
// queued/decision event pair, with the decision outcome matching an
// independent session.
func TestSSEStream(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, Linger: time.Millisecond})
	req := parityRequest(2) // tamper fault: dynamic path under SSE
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/decide?stream=sse", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("content type %q, want text/event-stream", ct)
	}
	stream, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(stream)
	if !strings.Contains(text, "event: queued") {
		t.Errorf("stream missing queued event:\n%s", text)
	}
	idx := strings.Index(text, "event: decision\ndata: ")
	if idx < 0 {
		t.Fatalf("stream missing decision event:\n%s", text)
	}
	payload := text[idx+len("event: decision\ndata: "):]
	payload = payload[:strings.Index(payload, "\n")]
	var decision DecideResponse
	if err := json.Unmarshal([]byte(payload), &decision); err != nil {
		t.Fatalf("decision payload %s: %v", payload, err)
	}
	have, err := json.Marshal(decision.Outcome)
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(independentOutcome(t, req))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(have, want) {
		t.Errorf("SSE outcome diverges\n daemon: %s\n  indep: %s", have, want)
	}
}

// TestDecideValidation pins the 400 surface: every malformed request is
// rejected at admission with a description, never packed.
func TestDecideValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	cases := []struct {
		name string
		body string
		want string
	}{
		{"empty", `{}`, "graph is required"},
		{"bad graph", `{"graph":"nonsense:9","inputs":[1]}`, "bad graph spec"},
		{"bad algorithm", `{"graph":"figure1a","algorithm":7,"inputs":[0,1,0,1,1]}`, "unknown algorithm"},
		{"no inputs", `{"graph":"figure1a","f":1}`, "inputs or input_pattern is required"},
		{"both inputs", `{"graph":"figure1a","inputs":[0,1,0,1,1],"input_pattern":[1]}`, "mutually exclusive"},
		{"short inputs", `{"graph":"figure1a","inputs":[0,1]}`, "graph has 5 nodes"},
		{"non-binary", `{"graph":"figure1a","inputs":[0,1,2,1,1]}`, "want 0 or 1"},
		{"fault range", `{"graph":"figure1a","inputs":[0,1,0,1,1],"faults":[{"node":9,"strategy":"silent"}]}`, "out of range"},
		{"fault dup", `{"graph":"figure1a","inputs":[0,1,0,1,1],"faults":[{"node":1,"strategy":"silent"},{"node":1,"strategy":"forge"}]}`, "two fault strategies"},
		{"fault strategy", `{"graph":"figure1a","inputs":[0,1,0,1,1],"faults":[{"node":1,"strategy":"lazy"}]}`, "unknown fault strategy"},
		{"eval rejects", `{"graph":"figure1a","f":-1,"inputs":[0,1,0,1,1]}`, "invalid request"},
		{"unknown field", `{"graph":"figure1a","inputs":[0,1,0,1,1],"bogus":1}`, "bad request body"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/decide", "application/json", strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400: %s", resp.StatusCode, body)
			}
			if !strings.Contains(string(body), tc.want) {
				t.Errorf("error body %s missing %q", body, tc.want)
			}
		})
	}
	resp, err := http.Get(ts.URL + "/v1/decide")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/decide: status %d, want 405", resp.StatusCode)
	}
}

// TestDecideRejectsOversizedGraph pins the node cap at admission: a
// cycle:65 request is a 400 naming the limit, while the valid requests sent
// beside it still pack into one group and decide.
func TestDecideRejectsOversizedGraph(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1, MaxBatch: 2, Linger: 10 * time.Second})
	reqs := []DecideRequest{
		{Graph: "cycle:65", F: 1, InputPattern: []int{1}},
		{Graph: "cycle:5", F: 1, InputPattern: []int{0, 1}},
		{Graph: "cycle:5", F: 1, InputPattern: []int{1}},
	}
	status := make([]int, len(reqs))
	body := make([][]byte, len(reqs))
	var wg sync.WaitGroup
	for i, req := range reqs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status[i], body[i] = postDecide(t, ts.URL, "cap", req)
		}()
	}
	wg.Wait()
	if status[0] != http.StatusBadRequest || !strings.Contains(string(body[0]), "more than the 64 supported") {
		t.Errorf("cycle:65: status %d, body %s; want 400 naming the 64-node limit", status[0], body[0])
	}
	for i := 1; i < len(reqs); i++ {
		var resp DecideResponse
		if status[i] != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, status[i], body[i])
		}
		if err := json.Unmarshal(body[i], &resp); err != nil {
			t.Fatal(err)
		}
		if !resp.Outcome.Agreement || !resp.Outcome.Validity || !resp.Outcome.Termination || resp.Batch.Size != 2 {
			t.Errorf("request %d: outcome %+v, batch %+v; want a decided run in a group of 2", i, resp.Outcome, resp.Batch)
		}
	}
}

// TestGraphCacheAliasAndBound pins the cache's canonical aliasing (two
// spec strings, one entry, one analysis) and its size cap (overflow
// lookups work but are not retained).
func TestGraphCacheAliasAndBound(t *testing.T) {
	c := newGraphCache(1)
	a, err := c.lookup("figure1b")
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.lookup("circulant:8:1,2")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("canonical aliases resolved to distinct entries")
	}
	over, err := c.lookup("figure1a")
	if err != nil {
		t.Fatal(err)
	}
	if over == nil || over.topo == nil {
		t.Fatal("overflow lookup returned no entry")
	}
	if c.size() != 1 {
		t.Errorf("cache size %d after overflow, want 1", c.size())
	}
}

// TestDecisionsPerSecond pins the sliding-window rate gauge arithmetic
// with an injected clock.
func TestDecisionsPerSecond(t *testing.T) {
	m := newMetrics()
	clock := time.Unix(1000, 0)
	m.now = func() time.Time { return clock }
	if got := m.decisionsPerSecond(); got != 0 {
		t.Errorf("empty ring rate %v, want 0", got)
	}
	for i := 0; i < 10; i++ {
		m.recordDecided("a")
	}
	m.recordBatch(10, true)
	clock = clock.Add(2 * time.Second)
	for i := 0; i < 30; i++ {
		m.recordDecided("a")
	}
	m.recordBatch(30, true)
	// 30 decisions between the two samples, 2 seconds apart.
	if got := m.decisionsPerSecond(); got != 15 {
		t.Errorf("rate %v, want 15", got)
	}
}
