package main

import (
	"context"
	"testing"
	"time"

	"lbcast/benchmark/workload"
)

// An open phase whose requests complete keeps its schedule: every request
// is sent, none fails, and latency runs from the due instant.
func TestOpenLoopHoldsSchedule(t *testing.T) {
	do := func(context.Context, int) workload.Result {
		time.Sleep(time.Millisecond)
		return workload.Result{Decisions: 1, Verdict: "ok"}
	}
	st := openLoop(context.Background(), 1000, do, 200*time.Millisecond, newDigester(4), nil)
	if st.attempted != 200 || st.failed != 0 || st.aborted != 0 || len(st.lat) != 200 || len(st.late) != 200 {
		t.Fatalf("attempted %d failed %d aborted %d latencies %d lateness %d, want 200 0 0 200 200",
			st.attempted, st.failed, st.aborted, len(st.lat), len(st.late))
	}
	for i, s := range st.lat {
		if s.value < 1 {
			t.Fatalf("request %d: latency %.3f ms is shorter than the operation", i, s.value)
		}
	}
}

// A queue that grows is a result, not a hang: once more than maxBacklog
// requests have been in flight for backlogGrace the phase stops sending and
// counts every request it never sent as attempted and failed.
func TestOpenLoopBacklogGuard(t *testing.T) {
	do := func(context.Context, int) workload.Result {
		time.Sleep(600 * time.Millisecond) // outlasts the 378 ms it takes the guard to trip
		return workload.Result{Decisions: 1, Verdict: "ok"}
	}
	const rate, n = 4000, 8000
	begin := time.Now()
	st := openLoop(context.Background(), rate, do, n*time.Second/rate, newDigester(4), nil)
	if took := time.Since(begin); took > 1500*time.Millisecond {
		t.Errorf("the phase took %v; the guard should have cut it off well before its 2 s", took)
	}
	sent := len(st.lat)
	if st.aborted == 0 || st.attempted != n || st.failed != st.aborted || sent+st.aborted != n {
		t.Fatalf("attempted %d failed %d aborted %d sent %d of %d", st.attempted, st.failed, st.aborted, sent, n)
	}
	// The limit is passed after maxBacklog/rate seconds and the grace runs
	// from there.
	earliest := maxBacklog + int(backlogGrace.Seconds()*rate)
	if sent < earliest || sent > 2*earliest {
		t.Errorf("%d requests were sent before the guard tripped, want about %d", sent, earliest)
	}
	if st.firstFail == "" {
		t.Error("no failure description")
	}
}

// A single caller executes whole cycles until they add up to the window,
// pauses between them, and counts only the cycles as measured time.
func TestSingleCallerRunsWholeCycles(t *testing.T) {
	do := func(context.Context, int) workload.Result {
		time.Sleep(time.Millisecond)
		return workload.Result{Decisions: 2, Verdict: "ok"}
	}
	const cycleLen, length = 4, 60 * time.Millisecond
	begin := time.Now()
	st := singleCaller(context.Background(), cycleLen, do, length, false, newDigester(cycleLen), nil)
	wall := time.Since(begin)
	if st.attempted == 0 || st.attempted%cycleLen != 0 || st.attempted != cycleLen*len(st.cycles) {
		t.Fatalf("%d operations in %d cycles of %d", st.attempted, len(st.cycles), cycleLen)
	}
	var sum time.Duration
	for _, c := range st.cycles {
		if c.decisions != 2*cycleLen || c.wall < cycleLen*time.Millisecond {
			t.Fatalf("cycle %+v: want %d decisions in at least %v", c, 2*cycleLen, cycleLen*time.Millisecond)
		}
		sum += c.wall
	}
	if st.elapsed != sum || st.elapsed < length {
		t.Errorf("measured %v, cycles add up to %v, window %v", st.elapsed, sum, length)
	}
	if pauses := wall - st.elapsed; float64(pauses) < 0.8*pauseShare*float64(sum-st.cycles[len(st.cycles)-1].wall) {
		t.Errorf("the run took %v for %v of cycles: the pauses are missing", wall, st.elapsed)
	}
	// A partial run stops inside a cycle and does not pause.
	st = singleCaller(context.Background(), 1000, do, 10*time.Millisecond, true, newDigester(4), nil)
	if len(st.cycles) != 1 || st.attempted >= 1000 || st.attempted == 0 {
		t.Errorf("partial run: %d operations in %d cycles", st.attempted, len(st.cycles))
	}
}
