// Command server is the per-layer probe of internal/server. On a second
// daemon that never lingers it times a lone request of the workload's shape
// against a plain Session run of the same shape (what decode, validation,
// admission and encoding add) and a request the daemon must reject. On a
// daemon with the default configuration it keeps requests of the shape in
// flight and reads the scheduling fields of the responses: how long
// requests waited for their batch and how full batches were. On the serve
// workloads the driver reports those last numbers from its own traced run
// instead.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"lbcast/benchmark/probes/kit"
	"lbcast/benchmark/workload"
	"lbcast/internal/eval"
	"lbcast/internal/server"
)

func main() { kit.Run("server", false, measure) }

// body renders the shape as a decide request on an explicit edge list.
func body(sh workload.Shape) ([]byte, error) {
	edges := make([]string, len(sh.Edges))
	for i, e := range sh.Edges {
		edges[i] = fmt.Sprintf("%d-%d", e.U, e.V)
	}
	type fault struct {
		Node     int    `json:"node"`
		Strategy string `json:"strategy"`
		Seed     int64  `json:"seed,omitempty"`
	}
	req := struct {
		Graph     string  `json:"graph"`
		F         int     `json:"f"`
		Algorithm int     `json:"algorithm"`
		Inputs    []int   `json:"inputs"`
		Faults    []fault `json:"faults,omitempty"`
	}{Graph: fmt.Sprintf("edges:%d:%s", sh.N, strings.Join(edges, ",")), F: sh.F, Algorithm: sh.Algorithm}
	for _, v := range sh.Inputs {
		req.Inputs = append(req.Inputs, int(v))
	}
	for _, f := range sh.Faults {
		req.Faults = append(req.Faults, fault{f.Node, f.Strategy, f.Seed})
	}
	return json.Marshal(req)
}

// post sends one request and returns the status and the response body.
func post(h http.Handler, b []byte, client string) (int, []byte) {
	req := httptest.NewRequest(http.MethodPost, "/v1/decide", bytes.NewReader(b))
	req.Header.Set("X-Client-ID", client)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec.Code, rec.Body.Bytes()
}

func drain(s *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	return s.Drain(ctx)
}

func measure(p *kit.Probe) error {
	g, sh := p.G, p.Shape
	b, err := body(sh)
	if err != nil {
		return err
	}
	var failed error

	solo := server.New(server.Config{Linger: -1})
	h := solo.Handler()
	lone := kit.Repeat(func() float64 {
		t0 := time.Now()
		code, resp := post(h, b, "probe")
		d := time.Since(t0)
		if code != http.StatusOK {
			failed = fmt.Errorf("lone request: status %d: %s", code, bytes.TrimSpace(resp))
		}
		return float64(d.Nanoseconds())
	})
	if failed != nil {
		return failed
	}
	session := kit.Repeat(func() float64 {
		spec, err := kit.Spec(g, sh)
		if err != nil {
			failed = err
			return 0
		}
		s, err := eval.NewSession(spec)
		if err != nil {
			failed = err
			return 0
		}
		t0 := time.Now()
		if _, err := s.Run(context.Background()); err != nil {
			failed = err
		}
		return float64(time.Since(t0).Nanoseconds())
	})
	p.Report("solo_overhead_us", (lone-session)/1e3)
	bad := []byte(`{"graph":"figure1b","f":2,"input_pattern":[0,2]}`)
	p.Report("reject_400_us", kit.Time(func() {
		if code, _ := post(h, bad, "probe"); code != http.StatusBadRequest {
			failed = fmt.Errorf("invalid request: status %d, want 400", code)
		}
	})/1e3)
	if err := drain(solo); err != nil {
		return err
	}
	if failed != nil {
		return failed
	}

	// 64 requests in flight over 8 clients for about 200 ms on a default
	// daemon, after one round of them as warm-up. A shape whose lone
	// request takes milliseconds (Algorithm 2, a tamperer) gets 8 in flight
	// and one round, or the probe would run for seconds.
	srv := server.New(server.Config{})
	h = srv.Handler()
	const clients = 8
	inFlight, length := 64, 200*time.Millisecond
	if lone > float64(2*time.Millisecond) {
		inFlight, length = 8, 0
	}
	var mu sync.Mutex
	var waits, sizes []float64
	var refused, sent int
	round := func(length time.Duration, record bool) {
		var wg sync.WaitGroup
		var issued atomic.Int64
		deadline := time.Now().Add(length)
		for w := 0; w < inFlight; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for first := true; first || time.Now().Before(deadline); first = false {
					issued.Add(1)
					code, resp := post(h, b, fmt.Sprintf("probe-%d", w%clients))
					var parsed struct {
						Batch struct {
							Size       int   `json:"size"`
							WaitMicros int64 `json:"wait_micros"`
						} `json:"batch"`
					}
					mu.Lock()
					switch {
					case code == http.StatusTooManyRequests || code == http.StatusServiceUnavailable:
						refused++
					case code != http.StatusOK:
						failed = fmt.Errorf("status %d: %s", code, bytes.TrimSpace(resp))
					case json.Unmarshal(resp, &parsed) != nil:
						failed = fmt.Errorf("unreadable response body")
					case record:
						waits = append(waits, float64(parsed.Batch.WaitMicros))
						sizes = append(sizes, float64(parsed.Batch.Size))
					}
					mu.Unlock()
				}
			}(w)
		}
		wg.Wait()
		if record {
			sent = int(issued.Load())
		}
	}
	round(0, false)
	refused = 0
	round(length, true)
	if err := drain(srv); err != nil {
		return err
	}
	if failed != nil {
		return failed
	}
	if len(waits) == 0 {
		return fmt.Errorf("no request was served")
	}
	sort.Float64s(waits)
	var sum float64
	for _, s := range sizes {
		sum += s
	}
	p.Report("wait_us_p50", waits[len(waits)/2])
	p.Report("wait_us_p99", waits[len(waits)*99/100])
	p.Report("batch_size_mean", sum/float64(len(sizes)))
	p.Report("rejected_share", float64(refused)/float64(sent))
	p.Report("decisions_total_delta", float64(len(waits)))
	return nil
}
