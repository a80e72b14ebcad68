package lbcast

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"testing"
)

// TestConcurrentSessionsShareGraph runs sessions of every replay tier —
// benign replay, masked crash, delta (tamper) — and Algorithm 2 from
// several goroutines on ONE graph, so they share its analysis, compiled
// plans, frozen plan arena, step-(b) caches, lazy box tables and run
// pools, and starts them cold so the first uses race too. Every result
// must equal a solo run of the same spec on a separate graph, compared by
// trace digest. Engines step a run's nodes on one goroutine, so under
// -race this is the test of the state concurrent runs share.
func TestConcurrentSessionsShareGraph(t *testing.T) {
	inputs := inputMap(0, 1, 0, 1, 0)
	specs := []struct {
		name string
		opts func(g *Graph) []Option
	}{
		{"benign", func(g *Graph) []Option { return nil }},
		{"masked-crash", func(g *Graph) []Option {
			return []Option{WithByzantine(map[NodeID]Node{2: NewSilentFault(2)})}
		}},
		{"delta-tamper", func(g *Graph) []Option {
			return []Option{WithByzantine(map[NodeID]Node{2: NewTamperFault(g, 2, PhaseRounds(g), 42)})}
		}},
		{"algo2-tamper", func(g *Graph) []Option {
			return []Option{WithAlgorithm(Algorithm2),
				WithByzantine(map[NodeID]Node{3: NewTamperFault(g, 3, PhaseRounds(g), 5)})}
		}},
	}
	run := func(g *Graph, i int) (string, error) {
		rec := &TraceRecorder{}
		opts := append([]Option{WithFaults(1), WithInputs(inputs), WithObserver(rec)}, specs[i].opts(g)...)
		s, err := NewSession(g, opts...)
		if err != nil {
			return "", err
		}
		res, err := s.Run(context.Background())
		if err != nil {
			return "", err
		}
		h := sha256.New()
		fmt.Fprintf(h, "%+v\n", res)
		for _, tr := range rec.Transmissions() {
			fmt.Fprintf(h, "r%d %d->%v %s\n", tr.Round, tr.From, tr.Receivers, tr.Payload.Key())
		}
		return hex.EncodeToString(h.Sum(nil)), nil
	}

	solo := make([]string, len(specs))
	ref := Figure1a()
	for i := range specs {
		d, err := run(ref, i)
		if err != nil {
			t.Fatalf("%s solo: %v", specs[i].name, err)
		}
		solo[i] = d
	}

	const goroutines, rounds = 4, 2
	shared := Figure1a()
	var wg sync.WaitGroup
	start := make(chan struct{}) // released at once, so first uses of the cold graph overlap
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for k := 0; k < rounds*len(specs); k++ {
				i := k % len(specs)
				d, err := run(shared, i)
				if err != nil {
					t.Errorf("goroutine %d, %s: %v", w, specs[i].name, err)
					return
				}
				if d != solo[i] {
					t.Errorf("goroutine %d, %s: trace digest %s, solo run %s", w, specs[i].name, d, solo[i])
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}
