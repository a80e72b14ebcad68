package workload

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"time"

	"lbcast"
	"lbcast/internal/server"
)

// The wire JSON of POST /v1/decide, restated here so that the driver
// depends on the daemon's protocol and not on its Go types.
type (
	wireFault struct {
		Node     int    `json:"node"`
		Strategy string `json:"strategy"`
		Seed     int64  `json:"seed,omitempty"`
	}
	wireRequest struct {
		Graph     string      `json:"graph"`
		F         int         `json:"f"`
		Algorithm int         `json:"algorithm,omitempty"`
		Inputs    []int       `json:"inputs,omitempty"`
		Faults    []wireFault `json:"faults,omitempty"`
	}
	wireResponse struct {
		Outcome struct {
			Decisions   map[string]int `json:"decisions"`
			Agreement   bool           `json:"agreement"`
			Validity    bool           `json:"validity"`
			Termination bool           `json:"termination"`
			Rounds      int            `json:"rounds"`
			Budget      int            `json:"budget"`
		} `json:"outcome"`
		Batch struct {
			Size       int   `json:"size"`
			WaitMicros int64 `json:"wait_micros"`
		} `json:"batch"`
	}
)

// verdict renders a served outcome in verdictOf's form, so a response and
// its oracle compare as text. No workload graph has more than maxNodes
// vertices.
func (w *wireResponse) verdict() string {
	const maxNodes = 16
	o := &w.Outcome
	var sb strings.Builder
	fmt.Fprintf(&sb, "a=%t v=%t t=%t r=%d/%d d=", o.Agreement, o.Validity, o.Termination, o.Rounds, o.Budget)
	for u := 0; u < maxNodes; u++ {
		key := strconv.Itoa(u)
		if v, ok := o.Decisions[key]; ok {
			sb.WriteString(key)
			sb.WriteByte(':')
			sb.WriteString(strconv.Itoa(v))
			sb.WriteByte(',')
		}
	}
	return sb.String()
}

// serveClients is the number of client identities requests rotate over.
const serveClients = 8

// serveReq is one generated request with its expected answer.
type serveReq struct {
	body   []byte
	client string
	// status is the answer the request must get: 200, or 400 for the
	// deliberately invalid ones.
	status int
	// class, inputs and faults describe a valid request to its oracle.
	class  *serveClass
	inputs []lbcast.Value
	faults []wireFault
	// want is the oracle's verdict text for a 200, computed at start.
	want string
}

// serveClass describes one class of valid request of a serve workload.
type serveClass struct {
	label     string
	graph     string
	f         int
	algorithm int
	// strategy plants one fault per request ("" for benign).
	strategy string
	count    int
	// fixed draws the class's requests from a constant stream instead of
	// the run seed's. A tampered request costs 3.5 to 12 ms depending on the
	// fault's node and seed and on the inputs (18 to 63 rounds), against
	// 0.3 ms for a benign one, so the classes whose draws move the cost are
	// a fixed pool and the seed only orders them.
	fixed bool
	// unanimousEvery makes every k-th request's input vector unanimous;
	// such a run decides after one phase and costs about half a mixed one,
	// so the share is fixed. 0 means none.
	unanimousEvery int
}

// specGraph builds the graph a daemon graph spec names. Only the specs the
// workloads use are known here.
func specGraph(spec string) (*lbcast.Graph, error) {
	switch spec {
	case "figure1a":
		return lbcast.Figure1a(), nil
	case "figure1b":
		return lbcast.Figure1b(), nil
	case "harary:4:10":
		return lbcast.Harary(4, 10)
	}
	return nil, fmt.Errorf("no generator for graph spec %q", spec)
}

// oracle computes a request's expected verdict with an independent
// lbcast.Session on g.
func oracle(g *lbcast.Graph, rq *serveReq) (string, error) {
	c := rq.class
	opts := []lbcast.Option{lbcast.WithFaults(c.f), lbcast.WithInputs(inputMap(rq.inputs))}
	if c.algorithm == 2 {
		opts = append(opts, lbcast.WithAlgorithm(lbcast.Algorithm2))
	}
	if len(rq.faults) > 0 {
		byz := make(map[lbcast.NodeID]lbcast.Node, len(rq.faults))
		for _, f := range rq.faults {
			u := lbcast.NodeID(f.Node)
			switch f.Strategy {
			case "silent":
				byz[u] = lbcast.NewSilentFault(u)
			case "tamper":
				byz[u] = lbcast.NewTamperFault(g, u, lbcast.PhaseRounds(g), f.Seed)
			default:
				return "", fmt.Errorf("no oracle for strategy %q", f.Strategy)
			}
		}
		opts = append(opts, lbcast.WithByzantine(byz))
	}
	s, err := lbcast.NewSession(g, opts...)
	if err != nil {
		return "", err
	}
	res, err := s.Run(context.Background())
	if err != nil {
		return "", err
	}
	if !res.OK() {
		return "", fmt.Errorf("oracle verdict not OK for %s: %s", c.label, verdictOf(res))
	}
	return verdictOf(res), nil
}

// invalidBodies are requests the daemon must answer with 400.
var invalidBodies = []string{
	`{"graph":"nosuchgraph:3","f":1,"input_pattern":[0,1]}`,
	`{"graph":"figure1b","f":2,"input_pattern":[0,2]}`,
	`{"graph":"figure1b","f":2}`,
	`{"graph":"figure1b","f":2,"input_pattern":[0,1],"faults":[{"node":1,"strategy":"bribe"}]}`,
}

// fixedPoolSeed seeds the request classes whose draws are not the run
// seed's to make.
const fixedPoolSeed = 20190729

// generateServe makes the request cycle of a serve workload: count valid
// requests per class, then the invalid ones, in an order the seed shuffles.
// Starting the instance computes every oracle and starts a daemon with the
// default configuration.
func generateServe(seed int64, name string, classes []serveClass, invalid, openRate int) (*Instance, error) {
	r := rng(seed, name)
	in := &Instance{OpenRate: openRate, InFlight: 64}
	var reqs []serveReq
	graphs := make(map[string]*lbcast.Graph)
	for ci := range classes {
		c := &classes[ci]
		g := graphs[c.graph]
		if g == nil {
			var err error
			if g, err = specGraph(c.graph); err != nil {
				return nil, err
			}
			graphs[c.graph] = g
		}
		n := g.N()
		draw := r
		if c.fixed {
			draw = rng(fixedPoolSeed, c.label)
		}
		for k := 0; k < c.count; k++ {
			inputs := mixedInputs(draw, n)
			unanimous := c.unanimousEvery > 0 && k%c.unanimousEvery == c.unanimousEvery-1
			if unanimous {
				v := lbcast.Value(draw.Intn(2))
				for u := range inputs {
					inputs[u] = v
				}
			}
			req := wireRequest{Graph: c.graph, F: c.f, Algorithm: c.algorithm, Inputs: make([]int, n)}
			for u, v := range inputs {
				req.Inputs[u] = int(v)
			}
			shape := Shape{Label: c.label, N: n, Edges: g.Edges(), F: c.f, Algorithm: max(c.algorithm, 1), Inputs: inputs}
			if c.strategy != "" {
				f := wireFault{Node: draw.Intn(n), Strategy: c.strategy}
				if c.strategy == "tamper" {
					f.Seed = 1 + draw.Int63n(1<<40)
				}
				req.Faults = []wireFault{f}
				shape.Faults = []Fault{{Node: f.Node, Strategy: f.Strategy, Seed: f.Seed}}
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			reqs = append(reqs, serveReq{body: body, status: http.StatusOK, class: c, inputs: inputs, faults: req.Faults})
			if k == 0 {
				in.Shapes = append(in.Shapes, shape)
			}
		}
	}
	for k := 0; k < invalid; k++ {
		reqs = append(reqs, serveReq{body: []byte(invalidBodies[k%len(invalidBodies)]), status: http.StatusBadRequest})
	}
	r.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	for i := range reqs {
		reqs[i].client = fmt.Sprintf("bench-%d", i%serveClients)
	}
	in.CycleLen = len(reqs)
	in.canon = func(i int) string { return string(reqs[i].body) }
	in.start = func() error {
		for i := range reqs {
			if rq := &reqs[i]; rq.status == http.StatusOK {
				var err error
				if rq.want, err = oracle(graphs[rq.class.graph], rq); err != nil {
					return err
				}
			}
		}
		srv := server.New(server.Config{})
		h := srv.Handler()
		in.Handler = h
		in.stop = func() error {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
			defer cancel()
			return srv.Drain(ctx)
		}
		in.do = func(_ context.Context, i int) Result { return decide(h, &reqs[i]) }
		return nil
	}
	return in, nil
}

// decide sends one request through the daemon's handler and checks the
// answer: the expected status, all three consensus properties, and the
// oracle's verdict.
func decide(h http.Handler, rq *serveReq) Result {
	req := httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(rq.body))
	req.Header.Set("X-Client-ID", rq.client)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != rq.status {
		return Result{
			Failed:  true,
			Refused: rec.Code == http.StatusTooManyRequests || rec.Code == http.StatusServiceUnavailable,
			Detail:  fmt.Sprintf("status %d, want %d: %s", rec.Code, rq.status, bytes.TrimSpace(rec.Body.Bytes())),
		}
	}
	if rq.status != http.StatusOK {
		return Result{Verdict: fmt.Sprintf("status=%d", rec.Code)}
	}
	var resp wireResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return Result{Failed: true, Detail: "response body: " + err.Error()}
	}
	out := Result{
		Decisions:  1,
		Verdict:    resp.verdict(),
		WaitMicros: resp.Batch.WaitMicros,
		BatchSize:  resp.Batch.Size,
	}
	o := &resp.Outcome
	switch {
	case !(o.Agreement && o.Validity && o.Termination):
		out.Decisions, out.Failed, out.Detail = 0, true, "verdict not OK: "+out.Verdict
	case out.Verdict != rq.want:
		out.Decisions, out.Failed, out.Detail = 0, true, "oracle mismatch: got "+out.Verdict+" want "+rq.want
	}
	return out
}

// generateServeBenign makes serve_benign: one pack key (figure1b, f=2,
// Algorithm 1, no faults), 64 requests per cycle, one in eight unanimous.
func generateServeBenign(seed int64) (*Instance, error) {
	return generateServe(seed, "serve_benign", []serveClass{
		{label: "figure1b/benign", graph: "figure1b", f: 2, count: 64, unanimousEvery: 8},
	}, 0, 1250)
}

// generateServeMixed makes serve_mixed: 200 valid requests per cycle in
// the fixed proportions 3:1:1:1:1:1 over six classes and four pack keys,
// plus 4 invalid ones (2%) that must get 400. The open phase runs at 150
// requests a second, a seventh of what the closed phase sustains: a group
// holding a tampered request occupies one of the two scheduler workers for
// 4 to 12 ms, and from about a third of capacity on the median request
// waits for a worker (at 300 req/s the median latency read 3.4 ms on a quiet
// machine and 6 to 7.5 ms on one that was 15% slower).
func generateServeMixed(seed int64) (*Instance, error) {
	return generateServe(seed, "serve_mixed", []serveClass{
		{label: "figure1b/benign", graph: "figure1b", f: 2, count: 75},
		{label: "harary:4:10/benign", graph: "harary:4:10", f: 2, count: 25},
		{label: "figure1b/tamper", graph: "figure1b", f: 2, strategy: "tamper", count: 25, fixed: true},
		{label: "figure1b/silent", graph: "figure1b", f: 2, strategy: "silent", count: 25, fixed: true},
		{label: "figure1a/algo2", graph: "figure1a", f: 1, algorithm: 2, count: 25, fixed: true},
		{label: "figure1a/benign", graph: "figure1a", f: 1, count: 25},
	}, 4, 150)
}
