package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"lbcast/benchmark/workload"
)

// A run sets a workload up several times and reports the median as setup_s:
// at least minSetups times, then until setupBudget has been spent or
// maxSetups is reached, so that a cheap set-up (tens of milliseconds, all
// noise) is sampled more often than an expensive one. The last set-up is
// the one the timed window runs on.
const (
	minSetups   = 3
	maxSetups   = 12
	setupBudget = 2 * time.Second
)

// Limits of the open-loop generator. A phase whose generator fired more
// than maxLateP50 late at the median could not keep its schedule: it
// measured the generator, not the daemon, and is invalid. (The tail of the
// lateness is not limited: when the daemon's batch execution occupies every
// P, the generator waits for a processor like any co-located client would,
// and that wait is inside the latency, which runs from the due instant.) A
// phase that has had more than maxBacklog requests in flight for
// backlogGrace is aborted as failed, because a growing queue is a result
// and must not become a hang. The grace separates a queue that grows from
// the burst with which the generator catches up on its schedule after the
// machine stalled (a 0.45 s stall puts 560 requests in flight at once and
// the daemon drains them in 0.15 s); it is short enough that a growing
// queue is cut off before the daemon's own limit of 1,024 pending requests.
const (
	maxLateP50   = time.Millisecond
	maxBacklog   = 512
	backlogGrace = 250 * time.Millisecond
	spinWindow   = 100 * time.Microsecond
	subWindows   = 5
)

// pauseShare spreads a single caller's window over more of the clock: after
// each operation cycle the caller sleeps for this share of the cycle's
// duration, and only the cycles count as measured time. The shared machine
// is disturbed for half a minute to a minute at a time (identical code then
// reads 25 to 50% slower); with ten runs back to back, as the harness makes
// them, such a spell covers three or four contiguous 12-second runs but only
// two 17-second ones, and two slow runs in ten leave the quartiles alone.
// Inside a run, throughput and CPU are medians over the cycles, which a spell
// covering less than half of the run does not move.
const pauseShare = 0.5

// span is one traced interval on the run's clock (nanoseconds since the
// pass began). Parent is the index of the causing span, -1 for a root; Op
// is the operation's sequence number within its phase, -1 for phase spans.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// tracer keeps spans in memory; a nil tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// add records one span and returns its index.
func (t *tracer) add(name string, start, end time.Time, parent, op int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		Name: name, Start: start.Sub(t.epoch).Nanoseconds(), End: end.Sub(t.epoch).Nanoseconds(),
		Parent: int32(parent), Op: int32(op),
	})
	return len(t.spans) - 1
}

// begin opens a span whose end is not known yet; finish closes it.
func (t *tracer) begin(name string, start time.Time) int {
	return t.add(name, start, start, -1, -1)
}

func (t *tracer) finish(id int, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans[id].End = end.Sub(t.epoch).Nanoseconds()
	t.mu.Unlock()
}

// opSpans records a finished operation under its phase span: the
// operation itself and, for a served request, the time it waited for its
// batch and the rest (execute, encode, decode, check).
func (t *tracer) opSpans(phase, op int, start, end time.Time, r workload.Result) {
	if t == nil {
		return
	}
	id := t.add("op", start, end, phase, op)
	if r.BatchSize > 0 {
		cut := start.Add(time.Duration(r.WaitMicros) * time.Microsecond)
		if cut.After(end) {
			cut = end
		}
		t.add("server.wait", start, cut, id, op)
		t.add("server.execute", cut, end, id, op)
	}
}

// phaseStats accumulates what one timed phase observed.
type phaseStats struct {
	attempted, failed, refused int
	decisions                  int
	elapsed                    time.Duration
	// lat holds one latency sample per operation, in milliseconds, with
	// the instant it is attributed to (seconds into the phase).
	lat []timed
	// late holds how late the open-loop generator fired each request.
	late []float64
	// aborted counts open-loop requests never sent because the backlog
	// guard tripped; they are failures.
	aborted int
	// waits and batch sizes echo the accepted responses (serve workloads).
	waits   []float64
	batches []float64
	// firstFail keeps one failure description for the report.
	firstFail string
	// cycles holds what each operation cycle of a single caller took.
	cycles []cycleStat
}

// cycleStat is one operation cycle of a single caller: every cycle executes
// the same operations.
type cycleStat struct {
	decisions int
	wall, cpu time.Duration
}

func (p *phaseStats) note(r workload.Result) {
	p.attempted++
	p.decisions += r.Decisions
	if r.Failed {
		p.failed++
		if p.firstFail == "" {
			p.firstFail = r.Detail
		}
	}
	if r.Refused {
		p.refused++
	}
	if r.BatchSize > 0 {
		p.waits = append(p.waits, float64(r.WaitMicros))
		p.batches = append(p.batches, float64(r.BatchSize))
	}
}

// digester collects the verdicts of the first operation cycle.
type digester struct {
	mu       sync.Mutex
	verdicts []string
	have     int
}

func newDigester(n int) *digester { return &digester{verdicts: make([]string, n)} }

// put records operation i's verdict the first time it is seen. An empty
// verdict (a failed operation) is stored as "failed" so the cycle still
// completes and the digest shows the difference.
func (d *digester) put(i int, verdict string) {
	if i >= len(d.verdicts) {
		return
	}
	if verdict == "" {
		verdict = "failed"
	}
	d.mu.Lock()
	if d.verdicts[i] == "" {
		d.verdicts[i] = verdict
		d.have++
	}
	d.mu.Unlock()
}

// sum returns the digest and whether the whole cycle was seen.
func (d *digester) sum() (string, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	h := sha256.New()
	for i, v := range d.verdicts {
		fmt.Fprintf(h, "%d %s\n", i, v)
	}
	return hex.EncodeToString(h.Sum(nil)), d.have == len(d.verdicts)
}

// cost is a snapshot of what the process has spent: CPU time and heap
// allocation.
type cost struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

// cpuTime returns the user and system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readCost() cost {
	c := cost{cpu: cpuTime()}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mallocs, c.bytes = ms.Mallocs, ms.TotalAlloc
	return c
}

// warmUp executes one operation cycle at the workload's closed-loop
// concurrency — in a quick (smoke) run only one operation per caller; it is
// part of set-up.
func warmUp(ctx context.Context, in *workload.Instance, quick bool) phaseStats {
	ops := in.CycleLen
	if quick {
		ops = min(ops, in.InFlight)
	}
	var st phaseStats
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(in.InFlight, ops); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= ops {
					return
				}
				r := in.Do(ctx, i)
				mu.Lock()
				st.note(r)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return st
}

// closedLoop runs the closed phase of a serve workload: InFlight callers,
// each sending its next operation only after the previous one completed, for
// the given time.
func closedLoop(ctx context.Context, in *workload.Instance, length time.Duration, dg *digester, tr *tracer) phaseStats {
	var st phaseStats
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(length)
	phase := tr.begin("phase.closed", start)

	for w := 0; w < in.InFlight; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				t0 := time.Now()
				r := in.Do(ctx, i)
				t1 := time.Now()
				dg.put(i, r.Verdict)
				mu.Lock()
				st.note(r)
				st.lat = append(st.lat, timed{at: t0.Sub(start).Seconds(), value: float64(t1.Sub(t0).Nanoseconds()) / 1e6})
				mu.Unlock()
				tr.opSpans(phase, i, t0, t1, r)
			}
		}()
	}
	wg.Wait()
	end := time.Now()
	st.elapsed = end.Sub(start)
	tr.finish(phase, end)
	return st
}

// singleCaller runs the window of a single-caller workload: whole operation
// cycles, one operation after the other, until they have taken length
// together, with a pause after each cycle (see pauseShare). Every run of
// every seed therefore executes whole cycles of the same operations. A
// partial (smoke) run stops at the first operation past the deadline and
// does not pause.
func singleCaller(ctx context.Context, cycleLen int, do func(context.Context, int) workload.Result, length time.Duration, partial bool, dg *digester, tr *tracer) phaseStats {
	var st phaseStats
	start := time.Now()
	phase := tr.begin("phase.closed", start)
	for i := 0; st.elapsed < length; {
		var c cycleStat
		c0, cpu0 := time.Now(), cpuTime()
		for k := 0; k < cycleLen && !(partial && st.elapsed+time.Since(c0) >= length); k, i = k+1, i+1 {
			t0 := time.Now()
			r := do(ctx, i)
			t1 := time.Now()
			dg.put(i, r.Verdict)
			st.note(r)
			st.lat = append(st.lat, timed{at: t0.Sub(start).Seconds(), value: float64(t1.Sub(t0).Nanoseconds()) / 1e6})
			tr.opSpans(phase, i, t0, t1, r)
			c.decisions += r.Decisions
		}
		c.wall, c.cpu = time.Since(c0), cpuTime()-cpu0
		st.cycles = append(st.cycles, c)
		st.elapsed += c.wall
		if !partial && st.elapsed < length {
			time.Sleep(time.Duration(pauseShare * float64(c.wall)))
		}
	}
	tr.finish(phase, time.Now())
	return st
}

// waitUntil is the dispatcher's wait: sleep until spinWindow before the
// due instant, then spin.
func waitUntil(due time.Time) {
	if d := time.Until(due); d > spinWindow {
		// Not time.Sleep: an otherwise idle Go process waits for its timers
		// in epoll_wait, which rounds up to a millisecond.
		ts := syscall.NsecToTimespec(int64(d - spinWindow))
		_ = syscall.Nanosleep(&ts, nil) // an interrupted sleep is finished by the spin
	}
	for time.Now().Before(due) {
	}
}

// idleLateness runs the dispatcher's schedule with nothing to send, 1,000
// instants a second for 200 ms, and returns how late it fired at p99 in
// microseconds: the generator's own precision on this machine, reported as
// bench.late_p99_us by the workloads that have no open phase.
func idleLateness() float64 {
	const n = 200
	late := make([]float64, n)
	start := time.Now()
	for i := range late {
		due := start.Add(time.Duration(i) * time.Millisecond)
		waitUntil(due)
		late[i] = float64(time.Since(due).Nanoseconds()) / 1e3
	}
	sort.Float64s(late)
	return percentile(late, 99)
}

// openLoop runs the open phase: one dispatcher on an absolute schedule
// (request i is due at start + i/rate) sends every request when it is due,
// whether or not earlier ones have completed. Latency runs from the due
// instant, so a stall is charged to the requests queued behind it.
func openLoop(ctx context.Context, rate int, do func(context.Context, int) workload.Result, length time.Duration, dg *digester, tr *tracer) phaseStats {
	n := int(float64(rate) * length.Seconds())
	st := phaseStats{lat: make([]timed, n), late: make([]float64, 0, n)}
	results := make([]workload.Result, n)
	starts := make([]time.Time, n)
	ends := make([]time.Time, n)
	var inflight atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	sent := 0
	var backlogged time.Time // since when the backlog has been above the limit
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(int64(i) * int64(time.Second) / int64(rate)))
		waitUntil(due)
		fired := time.Now()
		switch {
		case inflight.Load() <= maxBacklog:
			backlogged = time.Time{}
		case backlogged.IsZero():
			backlogged = fired
		case fired.Sub(backlogged) > backlogGrace:
			st.aborted = n - i
		}
		if st.aborted > 0 {
			break
		}
		st.late = append(st.late, float64(fired.Sub(due).Nanoseconds())/1e3)
		inflight.Add(1)
		wg.Add(1)
		sent++
		go func(i int, due time.Time) {
			defer wg.Done()
			r := do(ctx, i)
			done := time.Now()
			inflight.Add(-1)
			results[i], starts[i], ends[i] = r, due, done
			st.lat[i] = timed{at: due.Sub(start).Seconds(), value: float64(done.Sub(due).Nanoseconds()) / 1e6}
		}(i, due)
	}
	wg.Wait()
	end := time.Now()
	st.elapsed = end.Sub(start)
	st.lat = st.lat[:sent]
	phase := tr.add("phase.open", start, end, -1, -1)
	for i := 0; i < sent; i++ {
		st.note(results[i])
		dg.put(i, results[i].Verdict)
		tr.opSpans(phase, i, starts[i], ends[i], results[i])
	}
	st.attempted += st.aborted
	st.failed += st.aborted
	if st.aborted > 0 && st.firstFail == "" {
		st.firstFail = fmt.Sprintf("open phase aborted after %v with more than %d requests in flight; %d never sent", backlogGrace, maxBacklog, st.aborted)
	}
	return st
}

// scrapeCounter reads one unlabelled sample from the daemon's /metrics
// exposition; NaN when there is no daemon or no such sample.
func scrapeCounter(h http.Handler, name string) float64 {
	if h == nil {
		return math.NaN()
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			if v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil {
				return v
			}
		}
	}
	return math.NaN()
}

// passResult is what one measured pass over a workload produced.
type passResult struct {
	// values holds the end-to-end metrics; samples the sample count behind
	// each percentile.
	values  map[string]float64
	samples map[string]int
	// attempted and failed count operations over warm-up and timed phases.
	attempted, failed int
	firstFail         string
	digest            string
	digestComplete    bool
	// Driver-side layer numbers (server.*, bench.late_p99_us).
	layers map[string]float64
	spans  []span
	// invalid explains why the pass cannot be used (generator too late).
	invalid string
	// procs is the GOMAXPROCS the pass ran under.
	procs int
}

// passOpts selects how a pass runs.
type passOpts struct {
	seconds float64
	traced  bool
	// partial marks a smoke run: single-caller windows may stop mid-cycle,
	// and the workload is set up once with a one-operation warm-up.
	partial bool
}

// latencies returns the sorted latency values of a phase.
func latencies(lat []timed) []float64 {
	v := make([]float64, len(lat))
	for i, s := range lat {
		v[i] = s.value
	}
	sort.Float64s(v)
	return v
}

// timedPass runs the workload's timed phases on a prepared instance and
// derives the end-to-end metrics (except the set-up ones).
func timedPass(ctx context.Context, in *workload.Instance, o passOpts) passResult {
	res := passResult{values: map[string]float64{}, samples: map[string]int{}, layers: map[string]float64{}}
	var tr *tracer
	if o.traced {
		tr = newTracer()
	}
	dg := newDigester(in.CycleLen)
	window := time.Duration(o.seconds * float64(time.Second))

	var open, closed phaseStats
	var latPhase *phaseStats
	servedBefore := scrapeCounter(in.Handler, "lbcastd_decisions_total")
	if in.OpenRate > 0 {
		window /= 2
		open = openLoop(ctx, in.OpenRate, in.Do, window, dg, tr)
		latPhase = &open
	}
	before := readCost()
	if in.InFlight == 1 {
		closed = singleCaller(ctx, in.CycleLen, in.Do, window, o.partial, dg, tr)
	} else {
		closed = closedLoop(ctx, in, window, dg, tr)
	}
	after := readCost()
	if latPhase == nil {
		latPhase = &closed
	}

	res.attempted = open.attempted + closed.attempted
	res.failed = open.failed + closed.failed
	res.firstFail = open.firstFail
	if res.firstFail == "" {
		res.firstFail = closed.firstFail
	}
	res.digest, res.digestComplete = dg.sum()

	dec := float64(closed.decisions)
	res.values["decisions_per_s"] = dec / closed.elapsed.Seconds()
	res.values["cpu_ms_per_decision"] = float64((after.cpu - before.cpu).Nanoseconds()) / 1e6 / dec
	// A single caller reports its median cycle, not the mean one.
	var perS, cpuMs []float64
	for _, c := range closed.cycles {
		if c.decisions > 0 {
			perS = append(perS, float64(c.decisions)/c.wall.Seconds())
			cpuMs = append(cpuMs, float64(c.cpu.Nanoseconds())/1e6/float64(c.decisions))
		}
	}
	if len(perS) > 0 {
		res.values["decisions_per_s"], res.samples["decisions_per_s"] = median(perS), len(perS)
		res.values["cpu_ms_per_decision"], res.samples["cpu_ms_per_decision"] = median(cpuMs), len(cpuMs)
	}
	res.values["allocs_per_decision"] = float64(after.mallocs-before.mallocs) / dec
	res.values["bytes_per_decision"] = float64(after.bytes-before.bytes) / dec
	res.values["failed_share"] = float64(res.failed) / float64(max(res.attempted, 1))

	sorted := latencies(latPhase.lat)
	res.values["latency_p50_ms"] = percentile(sorted, 50)
	res.samples["latency_p50_ms"] = len(sorted)
	res.values["latency_p90_ms"], res.values["latency_p99_ms"] = math.NaN(), math.NaN()
	switch {
	case in.OpenRate > 0:
		// Served requests: thousands of samples, so the tail is p99, taken
		// per sub-window.
		p99, least := subWindowPercentile(latPhase.lat, window.Seconds(), subWindows, 99)
		res.values["latency_p99_ms"] = p99
		res.samples["latency_p99_ms"] = least
	case len(sorted) >= 100:
		// A single caller: p90 is the highest percentile with at least
		// ten samples beyond it once the window holds a hundred operations.
		res.values["latency_p90_ms"] = percentile(sorted, 90)
		res.samples["latency_p90_ms"] = len(sorted)
	}

	if in.OpenRate > 0 {
		late := sortedCopy(open.late)
		res.layers["bench.late_p99_us"] = percentile(late, 99)
		// A smoke run's open phase is a few dozen requests on a cold
		// daemon; its timing is checked by nobody.
		if p50 := percentile(late, 50); p50 > float64(maxLateP50.Microseconds()) && !o.partial {
			res.invalid = fmt.Sprintf("open-loop generator ran %.0f us late at the median (limit %d us): the run measured the generator", p50, maxLateP50.Microseconds())
		}
		waits := sortedCopy(append(append([]float64(nil), open.waits...), closed.waits...))
		res.layers["server.wait_us_p50"] = percentile(waits, 50)
		res.layers["server.wait_us_p99"] = percentile(waits, 99)
		var sum float64
		for _, b := range closed.batches {
			sum += b
		}
		res.layers["server.batch_size_mean"] = sum / float64(max(len(closed.batches), 1))
		res.layers["server.rejected_share"] = float64(open.refused+closed.refused) / float64(max(res.attempted, 1))
		// The daemon's own count of delivered decisions must equal what the
		// clients counted: 200 answers, correct or not.
		delta := scrapeCounter(in.Handler, "lbcastd_decisions_total") - servedBefore
		res.layers["server.decisions_total_delta"] = delta
		if served := len(open.batches) + len(closed.batches); delta != float64(served) {
			res.invalid = fmt.Sprintf("daemon counted %.0f decisions, clients received %d", delta, served)
		}
	}
	if tr != nil {
		res.spans = tr.spans
	}
	return res
}

// setUp prepares the workload — once, or repeatedly under the rule above —
// warming each instance up, and returns the last instance, the warm-up's
// tally, the median set-up time in seconds and the heap in MiB that the
// set-up retains.
func setUp(ctx context.Context, name string, seed int64, repeat, quick bool) (in *workload.Instance, warm phaseStats, seconds, heapMB float64, err error) {
	var times []float64
	begin := time.Now()
	for k := 0; k == 0 || (repeat && k < maxSetups && (k < minSetups || time.Since(begin) < setupBudget)); k++ {
		if in != nil {
			if err = in.Close(); err != nil {
				return nil, warm, 0, 0, err
			}
		}
		t0 := time.Now()
		if in, err = workload.Prepare(name, seed); err != nil {
			return nil, warm, 0, 0, err
		}
		warm = warmUp(ctx, in, quick)
		times = append(times, time.Since(t0).Seconds())
	}
	return in, warm, median(times), retainedHeapMB(), nil
}

// retainedHeapMB returns the live heap in MiB once collection has stopped
// finding anything to free. Dropped engines are released by finalizers, and
// what a finalizer releases is only freed by the collection after it ran,
// so one or two collections leave an amount that depends on timing.
func retainedHeapMB() float64 {
	var ms runtime.MemStats
	prev := ^uint64(0)
	for i := 0; i < 8; i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc+ms.HeapAlloc/200 >= prev {
			break
		}
		prev = ms.HeapAlloc
	}
	return float64(ms.HeapAlloc) / (1 << 20)
}

// maxProcs is the GOMAXPROCS of the serve workloads: load and daemon share
// the process as they would share a small machine, so there are never more
// runnable threads than this.
func maxProcs() int { return min(runtime.NumCPU(), 4) }

// procsFor returns the GOMAXPROCS a workload is measured under. A single
// caller gets one P: one core's worth of sweeps or sessions, the collector
// included. With a second P the collector runs beside the caller on a
// virtual CPU that is otherwise halted, and how fast the host wakes and
// serves that CPU changes from minute to minute: interleaved runs of the
// same code read 2.5 times further apart (interquartile range over median
// 12% against 5% on algo2_session, 28% against 11% on mc_benign).
func procsFor(name string, seed int64) (int, error) {
	in, err := workload.Generate(name, seed)
	if err != nil {
		return 0, err
	}
	if in.InFlight == 1 {
		return 1, nil
	}
	return maxProcs(), nil
}

// measure sets the workload up and runs one pass over it.
func measure(ctx context.Context, name string, seed int64, repeatSetup bool, o passOpts) (passResult, error) {
	procs, err := procsFor(name, seed)
	if err != nil {
		return passResult{}, err
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	in, warm, setupS, heapMB, err := setUp(ctx, name, seed, repeatSetup && !o.partial, o.partial)
	if err != nil {
		return passResult{}, err
	}
	res := timedPass(ctx, in, o)
	res.procs = procs
	if err := in.Close(); err != nil {
		return passResult{}, err
	}
	res.values["setup_s"] = setupS
	res.values["setup_heap_mb"] = heapMB
	res.attempted += warm.attempted
	res.failed += warm.failed
	if res.firstFail == "" {
		res.firstFail = warm.firstFail
	}
	res.values["failed_share"] = float64(res.failed) / float64(max(res.attempted, 1))
	return res, nil
}
