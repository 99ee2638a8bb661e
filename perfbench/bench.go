package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"sprofile"
	"sprofile/internal/server"
)

// Workload parameters. The open-loop rates sit well below saturation on a
// 2-vCPU host (see README.md); everything else follows the workload design.
const (
	zipfS       = 1.2
	removeShare = 0.1
	warmup      = time.Second
	// Each run builds its servers several times and reports the median
	// set-up time: cheap set-ups (milliseconds) need more repetitions to
	// outweigh scheduling noise than the recovery of a seeded history.
	setupRepsCheap    = 21
	setupRepsRecovery = 7
	// pollGap is the pause between visibility polls of one marker.
	pollGap = 100 * time.Microsecond
	// markerTimeout bounds how long a marker may take to become visible
	// before the probe counts as failed.
	markerTimeout = 5 * time.Second

	bulkUniverse    = 1_000_000
	bulkMarkerSlots = 1 << 16
	bulkBatch       = 2048
	bulkConns       = 2
	bulkPool        = 96 // bodies per connection, about 7.5 MiB
	bulkMarkerEvery = 4
	// bulkQueryEvery spaces the composite queries: each one quiesces every
	// idmap stripe and so pauses ingest on both connections. One query per
	// sixth body (about 50/s at 600k events/s) keeps that pause short and
	// still yields over 1,000 samples in a 30 s run down to 450k events/s.
	bulkQueryEvery = 6
	bulkSnapEvents = 1_500_000
	bulkTailEvents = 256 * bulkBatch
	// bulkCheckpointBytes makes the WAL tail checkpoint several times per
	// run at the closed-loop ingest rate.
	bulkCheckpointBytes = 8 << 20

	mixedUniverse    = 100_000
	mixedMarkerSlots = 1 << 15
	mixedPrefill     = 1_000_000
	mixedPrefillBody = 8192
	mixedQueryRate   = 500 // composite queries per second
	mixedWriteRate   = 500 // /v1/events requests per second
	mixedWriteEvents = 16
	mixedPool        = 4096
	mixedMarkerEvery = 10
)

// Salts of the independent random streams of one seed.
const (
	saltHistory  = 1
	saltPrefill  = 2
	saltArrivals = 3
	saltPool     = 100 // + connection
)

// env is one benchmark run.
type env struct {
	seed    int64
	seconds time.Duration
	tc      *tracer // nil on an untraced run
	rec     *recording
	dir     string
	ref     *reference
	rids    atomic.Uint64
}

// outcome is everything a workload run measured.
type outcome struct {
	s      series
	t0     time.Time
	window time.Duration
	setups []float64
	heapMB float64
	// fsyncs and checkpoints count, on a WAL-backed server, what the
	// server did between the first and the last write of the run.
	fsyncs      int64
	checkpoints int64
	checks      []string
	// capacity configures the replay probes like the servers; wal says
	// whether the server's handlers journaled their applies.
	capacity int
	wal      bool
	// traceSplit marks a traced run, whose window alternates traced and
	// untraced one-second slices; seconds is the window length.
	traceSplit bool
	seconds    int
	// catchUp is how long a fresh follower took to converge on the leader
	// (traced bulk-wal runs).
	catchUp time.Duration
}

func (o *outcome) check(name string, err error) {
	if err != nil {
		o.checks = append(o.checks, fmt.Sprintf("%s: %v", name, err))
	}
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		sleep(d)
	}
}

// arrivals returns the due times of an open loop: a Poisson process of the
// given rate from start until end. Random gaps keep the schedule from
// locking in phase with the server's own periodic work (snapshot publishing,
// tail polling), which would make a run's latencies depend on a phase.
func arrivals(rng *rand.Rand, rate float64, start, end time.Time) []time.Time {
	var out []time.Time
	for t := start; ; {
		t = t.Add(time.Duration(rng.ExpFloat64() / rate * float64(time.Second)))
		if !t.Before(end) {
			return out
		}
		out = append(out, t)
	}
}

func heapAlloc() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

func (e *env) wrap() func(http.Handler) http.Handler {
	if e.tc == nil {
		return nil
	}
	return e.tc.wrap
}

// writer cycles one connection through its pool of bodies and hands out a
// fresh marker key every markerEvery-th send.
type writer struct {
	conn        int
	pool        []*batch
	sends       int
	markerEvery int
	markerCap   int
	markerBase  int32
	markers     int
}

// shot is one send of a pooled body.
type shot struct {
	b         *batch
	conn, idx int
	marker    string
	markerRef int32
}

func (sh shot) events() int { return len(sh.b.evs) + btoi(sh.marker != "") }

func (w *writer) take() shot {
	idx := w.sends % len(w.pool)
	w.sends++
	sh := shot{b: w.pool[idx], conn: w.conn, idx: idx}
	if w.markerEvery > 0 && w.sends%w.markerEvery == 0 && w.markers < w.markerCap {
		sh.marker, sh.markerRef = markerName(w.conn, w.markers), w.markerBase+int32(w.markers)
		w.markers++
	}
	return sh
}

// write posts one body, checks that every event was applied, and feeds the
// reference. The latency runs from due (zero: from when it was sent).
func (e *env) write(c *conn, s *series, url string, sh shot, ndjson bool, due time.Time, measured bool) (reply, bool) {
	r, err := c.do(http.MethodPost, url, sh.b.parts(sh.marker, ndjson)...)
	e.rec.sent(sh, r)
	if measured {
		s.attempted++
	}
	if err == nil && r.status != http.StatusOK {
		// A refused or failed write may still have applied a prefix of its
		// events (the ingest routes apply in order and report how many);
		// the reference takes exactly those, so the final checks stay exact.
		if n, ok := jsonInt(r.body, "applied"); ok && n > 0 {
			if err := e.ref.ackPrefix(sh.b.evs, sh.marker, sh.markerRef, int(n)); err != nil {
				s.fail("%v", err)
			}
		}
	}
	switch {
	case err != nil:
		s.fail("write: %v", err)
		return r, false
	case r.status == http.StatusServiceUnavailable:
		s.shed++
		s.fail("write refused: %d %s", r.status, r.body)
		return r, false
	case r.status != http.StatusOK:
		s.fail("write failed: %d %s", r.status, r.body)
		return r, false
	}
	if n, ok := jsonInt(r.body, "applied"); !ok || int(n) != sh.events() {
		s.fail("applied check: sent %d events, server applied %d (%s)", sh.events(), n, r.body)
		return r, false
	}
	if err := e.ref.ackPrefix(sh.b.evs, sh.marker, sh.markerRef, sh.events()); err != nil {
		s.fail("%v", err)
		return r, false
	}
	s.writes++
	s.events += int64(sh.events())
	if measured {
		if due.IsZero() {
			due = r.sent
		} else {
			s.late.add(r.sent.Sub(due), false)
		}
		s.ack.add(r.done.Sub(due), r.traced)
		s.ackedEvents[btoi(r.traced)] += int64(sh.events())
		s.done(r.done)
	}
	return r, true
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// query posts the composite query; latency runs from due (zero: sent).
func (e *env) query(c *conn, s *series, url string, due time.Time, measured bool) {
	r, err := c.do(http.MethodPost, url+"/v1/query", queryBody)
	if !measured {
		return
	}
	s.attempted++
	if err != nil || r.status != http.StatusOK {
		if r.status == http.StatusServiceUnavailable {
			s.shed++
		}
		s.fail("query: %d %v %s", r.status, err, r.body)
		return
	}
	if due.IsZero() {
		due = r.sent
	} else {
		s.late.add(r.sent.Sub(due), false)
	}
	s.query.add(r.done.Sub(due), r.traced)
	s.done(r.done)
}

// countOf polls count(marker) once: when the answer arrived and whether it
// showed the marker.
func countOf(c *conn, url, marker string) (time.Time, bool, error) {
	r, err := c.do(http.MethodGet, url+"/v1/stats/count?object="+marker)
	if err != nil {
		return time.Time{}, false, err
	}
	if r.status != http.StatusOK {
		return time.Time{}, false, fmt.Errorf("count answered %d: %s", r.status, r.body)
	}
	f, ok := jsonInt(r.body, "frequency")
	return r.done, ok && f >= 1, nil
}

// probe polls count(marker) on url until it shows, and records the time from
// the marker's ack.
func probe(c *conn, s *series, url, marker string, ack time.Time, traced, measured bool) {
	deadline := time.Now().Add(markerTimeout)
	for {
		at, seen, err := countOf(c, url, marker)
		if err == nil && !seen && at.After(deadline) {
			err = fmt.Errorf("marker %s not visible after %v", marker, markerTimeout)
		}
		if err != nil || seen {
			if measured {
				s.attempted++
				if err != nil {
					s.fail("visibility probe: %v", err)
				} else {
					s.visible.add(at.Sub(ack), traced)
				}
			}
			return
		}
		sleep(pollGap)
	}
}

// finalAnswer runs the composite query once, untimed, for the checks.
func finalAnswer(url string) (sprofile.KeyedQueryResult[string], error) {
	var out sprofile.KeyedQueryResult[string]
	c := newConn(nil, new(atomic.Uint64))
	defer c.close()
	r, err := c.do(http.MethodPost, url+"/v1/query", queryBody)
	if err != nil {
		return out, err
	}
	if r.status != http.StatusOK {
		return out, fmt.Errorf("query answered %d: %s", r.status, r.body)
	}
	return out, json.Unmarshal(r.body, &out)
}

// setupHosts starts the servers reps times through build, which returns
// their set-up time, and keeps the last set.
func (e *env) setupHosts(o *outcome, reps int, build func(rep int) ([]*host, time.Duration, error)) ([]*host, error) {
	var hosts []*host
	for rep := 0; rep < reps; rep++ {
		hs, d, err := build(rep)
		if err != nil {
			return nil, err
		}
		o.setups = append(o.setups, d.Seconds())
		if rep < reps-1 {
			for i := len(hs) - 1; i >= 0; i-- {
				if err := hs[i].close(); err != nil {
					return nil, fmt.Errorf("closing set-up %d: %w", rep, err)
				}
			}
			continue
		}
		hosts = hs
	}
	return hosts, nil
}

// finish measures the heap, then closes the hosts (followers first).
func finish(o *outcome, base uint64, hosts []*host) error {
	o.heapMB = (float64(heapAlloc()) - float64(base)) / (1 << 20)
	var first error
	for i := len(hosts) - 1; i >= 0; i-- {
		if err := hosts[i].close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// runBulkWAL is the ingest path: two connections in a closed loop post
// 2,048-event NDJSON bodies to a WAL-backed server that starts from a seeded
// history and fsyncs once per chunk. After each ack the connection polls the
// body's marker, when it carries one, and after every sixth body it runs one
// composite query.
func runBulkWAL(e *env) (*outcome, error) {
	capacity := bulkUniverse + bulkMarkerSlots
	o := &outcome{capacity: capacity, wal: true}
	counts := make([]int32, bulkUniverse)
	ref, err := newReference(capacity, bulkUniverse)
	if err != nil {
		return nil, err
	}
	e.ref = ref
	h := genHistory(e.seed, counts, capacity, zipfS, removeShare, bulkSnapEvents, bulkTailEvents, bulkBatch, ref)
	pristine := filepath.Join(e.dir, "history")
	if err := h.write(pristine); err != nil {
		return nil, fmt.Errorf("writing seeded history: %w", err)
	}
	poolCounts := make([]int32, bulkUniverse)
	writers := make([]*writer, bulkConns)
	per := bulkMarkerSlots / bulkConns
	for c := range writers {
		st := newStream(e.seed, saltPool+int64(c), c, bulkConns, poolCounts, zipfS, removeShare)
		writers[c] = &writer{conn: c, pool: st.pool(bulkPool, bulkBatch, true),
			markerEvery: bulkMarkerEvery, markerCap: per, markerBase: int32(bulkUniverse + c*per)}
	}
	e.rec.init(counts, writers)
	base := heapAlloc()
	hosts, err := e.setupHosts(o, setupRepsRecovery, func(rep int) ([]*host, time.Duration, error) {
		dir := filepath.Join(e.dir, fmt.Sprintf("data-%d", rep))
		if err := copyDir(dir, pristine); err != nil {
			return nil, 0, err
		}
		ho, d, err := startHost(server.Config{
			Capacity:        capacity,
			WALPath:         dir,
			CheckpointBytes: bulkCheckpointBytes,
		}, e.wrap())
		if err != nil {
			return nil, 0, err
		}
		return []*host{ho}, d, nil
	})
	if err != nil {
		return nil, err
	}
	url := hosts[0].url
	ctl := newConn(nil, &e.rids)
	defer ctl.close()
	f0, c0, err := health(ctl, url)
	if err != nil {
		return nil, err
	}

	o.t0 = time.Now().Add(warmup)
	end := o.t0.Add(e.seconds)
	stop := make(chan struct{})
	slicesDone := e.tc.slices(o.t0, stop)
	conns := make([]series, bulkConns)
	var wg sync.WaitGroup
	for ci := range writers {
		wg.Add(1)
		go func(w *writer, s *series) {
			defer wg.Done()
			c := newConn(e.tc, &e.rids)
			defer c.close()
			for {
				now := time.Now()
				if !now.Before(end) {
					return
				}
				measured := !now.Before(o.t0)
				sh := w.take()
				r, ok := e.write(c, s, url+"/v1/events/bulk", sh, true, time.Time{}, measured)
				if ok && sh.marker != "" {
					probe(c, s, url, sh.marker, r.done, r.traced, measured)
				}
				if w.sends%bulkQueryEvery == 0 {
					e.query(c, s, url, time.Time{}, measured)
				}
			}
		}(writers[ci], &conns[ci])
	}
	wg.Wait()
	close(stop)
	<-slicesDone
	for i := range conns {
		o.s.merge(&conns[i])
	}
	o.window = o.s.lastDone.Sub(o.t0)
	f1, c1, err := health(ctl, url)
	if err != nil {
		return nil, err
	}
	o.fsyncs, o.checkpoints = f1-f0, c1-c0
	ans, err := finalAnswer(url)
	if err == nil {
		err = ref.compare(ans)
	}
	o.check("final query matches reference", err)
	if e.tc != nil && err == nil {
		fh, err := e.catchUp(o, ctl, url, capacity, writers)
		if err != nil {
			return nil, err
		}
		hosts = append(hosts, fh)
	}
	ctl.close()
	return o, finish(o, base, hosts)
}

// catchUpPoll is the long-poll wait the catch-up follower asks for, short
// so that polls after convergence do not pose as slow fetches.
const catchUpPoll = 100 * time.Millisecond

// catchUp is the replication probe of a traced bulk-wal run. Once the load
// has stopped, the leader checkpoints and then journals one more cycle of
// every connection's pool (about 1.4 MiB of log), so the follower always
// catches up on the same amount of data, however much the run ingested and
// wherever its last automatic checkpoint fell. catchUp then starts a
// follower, with the leader's replication routes traced, and times how long
// it takes to bootstrap from the snapshot and replay the tail until it
// answers like the reference and like the leader.
func (e *env) catchUp(o *outcome, ctl *conn, leader string, capacity int, writers []*writer) (*host, error) {
	r, err := ctl.do(http.MethodPost, leader+"/v1/admin/checkpoint")
	if err == nil && r.status != http.StatusOK {
		err = fmt.Errorf("checkpoint answered %d: %s", r.status, r.body)
	}
	if err != nil {
		return nil, fmt.Errorf("catch-up checkpoint: %w", err)
	}
	var discard series
	for _, w := range writers {
		for _, b := range w.pool {
			if _, ok := e.write(ctl, &discard, leader+"/v1/events/bulk", shot{b: b, conn: w.conn, idx: -1}, true, time.Time{}, false); !ok {
				return nil, fmt.Errorf("catch-up tail: %v", discard.problems)
			}
		}
	}
	want, err := finalAnswer(leader)
	if err != nil {
		return nil, fmt.Errorf("catch-up leader answer: %w", err)
	}
	e.tc.on.Store(true)
	defer e.tc.on.Store(false)
	start := time.Now()
	fh, _, err := startHost(server.Config{Capacity: capacity, WALPath: filepath.Join(e.dir, "follower"),
		Follow: leader, FollowPoll: catchUpPoll}, nil)
	if err != nil {
		return nil, fmt.Errorf("catch-up follower: %w", err)
	}
	deadline := start.Add(60 * time.Second)
	for {
		ans, err := finalAnswer(fh.url)
		if err == nil {
			err = e.ref.compare(ans)
		}
		if err == nil {
			o.catchUp = time.Since(start)
			o.check("caught-up follower matches leader", sameAnswer(want, ans))
			return fh, nil
		}
		if time.Now().After(deadline) {
			o.check("caught-up follower matches reference", err)
			return fh, nil
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// runQueryMixed is the read path under write contention: an in-memory
// server prefilled with about 1M zipf events, then an open loop of composite
// queries on one connection and 16-event /v1/events writes on the other.
// Every tenth write carries a marker the writer polls right after the ack.
func runQueryMixed(e *env) (*outcome, error) {
	capacity := mixedUniverse + mixedMarkerSlots
	o := &outcome{capacity: capacity}
	counts := make([]int32, mixedUniverse)
	ref, err := newReference(capacity, mixedUniverse)
	if err != nil {
		return nil, err
	}
	e.ref = ref
	prefill := newStream(e.seed, saltPrefill, 0, 1, counts, zipfS, removeShare)
	st := newStream(e.seed, saltPool, 0, 1, make([]int32, mixedUniverse), zipfS, removeShare)
	w := &writer{pool: st.pool(mixedPool, mixedWriteEvents, false),
		markerEvery: mixedMarkerEvery, markerCap: mixedMarkerSlots, markerBase: mixedUniverse}
	base := heapAlloc()
	hosts, err := e.setupHosts(o, setupRepsCheap, func(int) ([]*host, time.Duration, error) {
		ho, d, err := startHost(server.Config{Capacity: capacity}, e.wrap())
		return []*host{ho}, d, err
	})
	if err != nil {
		return nil, err
	}
	url := hosts[0].url
	wc := newConn(e.tc, &e.rids)
	defer wc.close()
	var discard series
	pb := &batch{}
	for done := 0; done < mixedPrefill; done += mixedPrefillBody {
		prefill.next(pb, mixedPrefillBody, true)
		if _, ok := e.write(wc, &discard, url+"/v1/events/bulk", shot{b: pb, idx: -1}, true, time.Time{}, false); !ok {
			return nil, fmt.Errorf("prefill failed: %v", discard.problems)
		}
	}
	e.rec.init(counts, []*writer{w})

	start := time.Now()
	o.t0 = start.Add(warmup)
	end := o.t0.Add(e.seconds)
	rng := seededRand(e.seed, saltArrivals)
	qdue := arrivals(rng, mixedQueryRate, start, end)
	wdue := arrivals(rng, mixedWriteRate, start, end)
	stop := make(chan struct{})
	slicesDone := e.tc.slices(o.t0, stop)
	var qs, ws series
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		c := newConn(e.tc, &e.rids)
		defer c.close()
		for _, due := range qdue {
			sleepUntil(due)
			e.query(c, &qs, url, due, !due.Before(o.t0))
		}
	}()
	go func() {
		defer wg.Done()
		for _, due := range wdue {
			sh := w.take()
			sleepUntil(due)
			measured := !due.Before(o.t0)
			r, ok := e.write(wc, &ws, url+"/v1/events", sh, false, due, measured)
			if ok && sh.marker != "" {
				probe(wc, &ws, url, sh.marker, r.done, r.traced, measured)
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-slicesDone
	o.s.merge(&qs)
	o.s.merge(&ws)
	o.window = o.s.lastDone.Sub(o.t0)
	ans, err := finalAnswer(url)
	if err == nil {
		err = ref.compare(ans)
	}
	o.check("final query matches reference", err)
	wc.close()
	return o, finish(o, base, hosts)
}

// recording keeps, on a traced run, what the replay probes need: the key
// state the writers' pools are first sent from, the first bodies of each
// pool, and which traced send carried which of them.
type recording struct {
	limit int
	pre   []int32
	pools [][]*batch
	mu    sync.Mutex
	sends []recSend
}

// recSend is one traced send of a recorded body; marked sends carried a
// marker event on top of it.
type recSend struct {
	conn, idx int
	rid       uint64
	marked    bool
}

func newRecording(limit int) *recording { return &recording{limit: limit} }

// init notes the starting key state and the first limit bodies of each pool.
func (r *recording) init(pre []int32, writers []*writer) {
	if r == nil {
		return
	}
	r.pre = append([]int32(nil), pre...)
	for _, w := range writers {
		r.pools = append(r.pools, w.pool[:min(r.limit, len(w.pool))])
	}
}

// sent notes a traced send of a recorded body.
func (r *recording) sent(sh shot, rp reply) {
	if r == nil || !rp.traced || sh.idx < 0 || sh.idx >= r.limit {
		return
	}
	r.mu.Lock()
	r.sends = append(r.sends, recSend{conn: sh.conn, idx: sh.idx, rid: rp.rid, marked: sh.marker != ""})
	r.mu.Unlock()
}

func mkdirAll(dir string) error { return os.MkdirAll(dir, 0o755) }
