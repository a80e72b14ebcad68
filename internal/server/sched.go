package server

import (
	"context"
	"sync"
	"time"

	"lbcast/internal/eval"
)

// The scheduler is the daemon's data plane: W workers, each draining
// packed groups from one queue and running each group as its own batched
// round loop (eval.BatchSession.Run) over the graph's memoized analysis
// and compiled flood plan. Group-level parallelism is what lets the
// daemon saturate a multi-core machine — every worker owns a full round
// loop, and benign steady-state groups ride the compiled-plan replay path
// end to end.

// sched runs packed groups on a bounded worker pool.
type sched struct {
	queue   chan *packGroup
	workers int
	metrics *metrics
	// after is the per-request completion hook (decision counters, slot
	// release); ok reports whether the group executed successfully.
	after func(client string, ok bool)
	wg    sync.WaitGroup
}

// newSched builds the scheduler; workers is at least 1 (Config.withDefaults).
func newSched(workers, queueCap int, m *metrics, after func(string, bool)) *sched {
	return &sched{
		queue:   make(chan *packGroup, queueCap),
		workers: workers,
		metrics: m,
		after:   after,
	}
}

// start launches the worker pool. Workers exit when the queue closes.
func (s *sched) start() {
	for i := 0; i < s.workers; i++ {
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			for g := range s.queue {
				s.runGroup(g)
			}
		}()
	}
}

// submit enqueues a packed group (blocks when the queue is full — the
// admission cap upstream bounds how far this can back up).
func (s *sched) submit(g *packGroup) { s.queue <- g }

// stop closes the queue and waits for in-flight groups to finish.
func (s *sched) stop() {
	close(s.queue)
	s.wg.Wait()
}

// runGroup executes one packed group as a batched round loop and delivers
// each request's outcome. Node-level stepping is sequential whenever the
// pool has more than one worker (worker-level parallelism replaces it,
// exactly like parallel sweep cells).
func (s *sched) runGroup(g *packGroup) {
	started := time.Now()
	spec := g.base
	spec.Sequential = s.workers > 1
	spec.Instances = make([]eval.BatchInstance, len(g.reqs))
	for i, r := range g.reqs {
		spec.Instances[i] = r.inst
	}
	var out eval.BatchOutcome
	bs, err := eval.NewBatchSessionShared(spec, g.entry.topo)
	if err == nil {
		out, err = bs.Run(context.Background())
	}
	info := BatchInfo{Size: len(g.reqs)}
	for i, r := range g.reqs {
		res := decideResult{err: err}
		if err == nil {
			res.outcome = out.Outcomes[i]
		}
		res.batch = info
		res.batch.WaitMicros = started.Sub(r.enqueued).Microseconds()
		r.done <- res
		s.after(r.client, err == nil)
	}
	s.metrics.recordBatch(len(g.reqs), err == nil)
}
