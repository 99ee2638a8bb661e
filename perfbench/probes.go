package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"sprofile"
	"sprofile/client"
	"sprofile/internal/baseline/heapprof"
	"sprofile/internal/checkpoint"
	"sprofile/internal/core"
	"sprofile/internal/idmap"
	"sprofile/internal/wal"
)

// Layer replay probes. After a traced run, each probe times one layer's
// public functions on the batches the workload itself generated in its
// measured window, starting from the universe state just before them.

// probeQueries is how many composite queries the query probes time.
const probeQueries = 2000

// shards mirrors the servers' default: one shard per usable CPU.
func shards() int { return min(runtime.GOMAXPROCS(0), runtime.NumCPU()) }

// replayBatch is one recorded body: which connection's pool, which slot.
type replayBatch struct {
	conn, idx int
	tuples    []sprofile.KeyedTuple[string]
}

// replay is the recorded input in the shapes the probes need.
type replay struct {
	// tc receives one span per timed call, named by its write- or
	// read-path stage.
	tc       *tracer
	batches  []replayBatch
	events   int
	pre      []int32
	capacity int
	// dense holds each batch's events as dense ids, with ^id for removes.
	dense [][]int32
	// distinct holds each batch's distinct keys, in first-seen order.
	distinct [][]string
	// entries holds each batch coalesced as the WAL journals it.
	entries [][]wal.BatchEntry
}

// newReplay lays out the first recorded bodies of every pool, connection by
// connection: a valid serial order, since connections share no keys.
func newReplay(tc *tracer, r *recording, capacity int) *replay {
	rp := &replay{tc: tc, pre: r.pre, capacity: capacity}
	for conn, pool := range r.pools {
		for idx, b := range pool {
			rp.batches = append(rp.batches, replayBatch{conn: conn, idx: idx, tuples: b.tuples()})
			rp.events += len(b.evs)
			rp.dense = append(rp.dense, b.evs)
			index := make(map[int32]int)
			var keys []string
			var entries []wal.BatchEntry
			for i, e := range b.evs {
				id := e
				if id < 0 {
					id = ^id
				}
				j, ok := index[id]
				if !ok {
					j = len(entries)
					index[id] = j
					key := rp.batches[len(rp.batches)-1].tuples[i].Key
					keys = append(keys, key)
					entries = append(entries, wal.BatchEntry{Key: key})
				}
				if e >= 0 {
					entries[j].Adds++
				} else {
					entries[j].Removes++
				}
			}
			rp.distinct = append(rp.distinct, keys)
			rp.entries = append(rp.entries, entries)
		}
	}
	return rp
}

// span records a probe call that started at start and ends now.
func (rp *replay) span(stage string, start time.Time) time.Duration {
	end := time.Now()
	rp.tc.record(stage, 0, start, end)
	return end.Sub(start)
}

// preload brings a keyed profile to the recorded starting state.
func (rp *replay) preload(k *sprofile.KeyedConcurrent[string]) error {
	for id, f := range rp.pre {
		if f > 0 {
			if err := k.ApplyDelta(keyName(int32(id)), uint64(f), 0); err != nil {
				return err
			}
		}
	}
	return nil
}

// keyedProbe times the keyed apply per batch and then QueryKeys. The apply
// is KeyedConcurrent.ApplyBatch, or with perEvent one Apply per event as
// the /v1/events handler does it. walDir non-empty journals to a WAL there,
// as the server does; stage names the apply spans.
func (rp *replay) keyedProbe(walDir, stage string, perEvent bool) (perBatch []time.Duration, queries []int64, err error) {
	var opts []sprofile.BuildOption
	if walDir != "" {
		opts = append(opts, sprofile.WithWAL(walDir))
	}
	k, err := sprofile.BuildKeyed[string](rp.capacity, opts...)
	if err != nil {
		return nil, nil, err
	}
	defer k.Close()
	if err := rp.preload(k); err != nil {
		return nil, nil, fmt.Errorf("preload: %w", err)
	}
	if err := k.Sync(); err != nil {
		return nil, nil, err
	}
	for _, b := range rp.batches {
		start := time.Now()
		n := 0
		if perEvent {
			for _, t := range b.tuples {
				if err = k.Apply(t.Key, t.Action); err != nil {
					break
				}
				n++
			}
		} else {
			n, err = k.ApplyBatch(b.tuples)
		}
		perBatch = append(perBatch, rp.span(stage, start))
		if err != nil || n != len(b.tuples) {
			return nil, nil, fmt.Errorf("apply applied %d of %d: %v", n, len(b.tuples), err)
		}
	}
	for i := 0; i < probeQueries; i++ {
		start := time.Now()
		if _, err := k.QueryKeys(finalQuery); err != nil {
			return nil, nil, err
		}
		queries = append(queries, rp.span("cut", start).Nanoseconds())
	}
	return perBatch, queries, k.Close()
}

// asyncProbe times AsyncKeyed.ApplyBatch (the enqueue) per batch, and a
// Flush after every eighth batch.
func (rp *replay) asyncProbe(walDir string) (perBatch []time.Duration, flushes []int64, err error) {
	var opts []sprofile.BuildOption
	if walDir != "" {
		opts = append(opts, sprofile.WithWAL(walDir))
	}
	k, err := sprofile.BuildKeyed[string](rp.capacity, opts...)
	if err != nil {
		return nil, nil, err
	}
	if err := rp.preload(k); err != nil {
		k.Close()
		return nil, nil, fmt.Errorf("preload: %w", err)
	}
	ak, err := sprofile.NewAsyncKeyed(k, sprofile.AsyncPolicy{})
	if err != nil {
		k.Close()
		return nil, nil, err
	}
	defer ak.Close()
	for i, b := range rp.batches {
		start := time.Now()
		n, err := ak.ApplyBatch(b.tuples)
		perBatch = append(perBatch, rp.span("enqueue", start))
		if err != nil || n != len(b.tuples) {
			return nil, nil, fmt.Errorf("async ApplyBatch enqueued %d of %d: %v", n, len(b.tuples), err)
		}
		if i%8 == 7 {
			start := time.Now()
			if err := ak.Flush(); err != nil {
				return nil, nil, err
			}
			flushes = append(flushes, rp.span("publish", start).Nanoseconds())
		}
	}
	return perBatch, flushes, ak.Close()
}

// idmapProbe times Striped.Acquire over each batch's distinct keys.
func (rp *replay) idmapProbe() (nsPerKey, newRatio float64, err error) {
	s, err := idmap.NewStriped[string](rp.capacity, shards())
	if err != nil {
		return 0, 0, err
	}
	for id, f := range rp.pre {
		if f > 0 {
			if _, _, err := s.Acquire(keyName(int32(id))); err != nil {
				return 0, 0, err
			}
		}
	}
	var total time.Duration
	keys, fresh := 0, 0
	for _, ks := range rp.distinct {
		start := time.Now()
		for _, k := range ks {
			_, isNew, err := s.Acquire(k)
			if err != nil {
				return 0, 0, err
			}
			if isNew {
				fresh++
			}
		}
		total += rp.span("resolve", start)
		keys += len(ks)
	}
	if keys == 0 {
		return 0, 0, nil
	}
	return float64(total.Nanoseconds()) / float64(keys), float64(fresh) / float64(keys), nil
}

// coreProbe times core.Profile updates and queries and the heap baseline on
// the same dense event stream.
func (rp *replay) coreProbe() (updateNs, queryUs, heapNs float64, err error) {
	freqs := make([]int64, rp.capacity)
	for id, f := range rp.pre {
		freqs[id] = int64(f)
	}
	p, err := core.FromFrequencies(freqs, core.WithStrictNonNegative())
	if err != nil {
		return 0, 0, 0, err
	}
	h, err := heapprof.New(rp.capacity, heapprof.MaxHeap)
	if err != nil {
		return 0, 0, 0, err
	}
	for id, f := range rp.pre {
		for i := int32(0); i < f; i++ {
			if err := h.Add(id); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	var coreT, heapT time.Duration
	for _, evs := range rp.dense {
		start := time.Now()
		for _, e := range evs {
			if e >= 0 {
				err = p.Add(int(e))
			} else {
				err = p.Remove(int(^e))
			}
			if err != nil {
				return 0, 0, 0, err
			}
		}
		coreT += rp.span("apply.core", start)
		start = time.Now()
		for _, e := range evs {
			if e >= 0 {
				err = h.Add(int(e))
			} else {
				err = h.Remove(int(^e))
			}
			if err != nil {
				return 0, 0, 0, err
			}
		}
		heapT += rp.span("apply.heap_baseline", start)
	}
	q := core.Query{Mode: true, TopK: finalQuery.TopK, Quantiles: finalQuery.Quantiles, Summary: true}
	var qs []int64
	for i := 0; i < probeQueries; i++ {
		start := time.Now()
		if _, err := p.Query(q); err != nil {
			return 0, 0, 0, err
		}
		qs = append(qs, rp.span("evaluate", start).Nanoseconds())
	}
	ev := float64(max(rp.events, 1))
	return float64(coreT.Nanoseconds()) / ev, quantile(qs, 0.5, 1e3), float64(heapT.Nanoseconds()) / ev, nil
}

// walProbe times wal.Dir.AppendBatch and Sync once per batch.
func (rp *replay) walProbe(dir string) (appendUs float64, fsyncs []int64, bytesPerEvent float64, err error) {
	if err := mkdirAll(dir); err != nil {
		return 0, nil, 0, err
	}
	d, err := wal.OpenDir(dir, wal.Options{}, nil, 1, 0)
	if err != nil {
		return 0, nil, 0, err
	}
	defer d.Close()
	var appendT time.Duration
	for _, entries := range rp.entries {
		start := time.Now()
		if _, err := d.AppendBatch(entries); err != nil {
			return 0, nil, 0, err
		}
		appendT += rp.span("journal", start)
		start = time.Now()
		if err := d.Sync(); err != nil {
			return 0, nil, 0, err
		}
		fsyncs = append(fsyncs, rp.span("fsync_wait", start).Nanoseconds())
	}
	n := float64(max(len(rp.entries), 1))
	bpe := float64(d.AppendedBytes()) / float64(max(rp.events, 1))
	return float64(appendT.Nanoseconds()) / 1e3 / n, fsyncs, bpe, d.Close()
}

// checkpointProbe writes the replayed state as a checkpoint three times,
// then reopens the directory three times, timing Store.Checkpoint and
// checkpoint.Open plus the tail replay.
func (rp *replay) checkpointProbe(dir string) (writeMs, restoreMs, bytes float64, err error) {
	counts := make(map[string]int64)
	for id, f := range rp.pre {
		if f > 0 {
			counts[keyName(int32(id))] = int64(f)
		}
	}
	for _, b := range rp.batches {
		for _, t := range b.tuples {
			if t.Action == sprofile.ActionAdd {
				counts[t.Key]++
			} else {
				counts[t.Key]--
			}
		}
	}
	st := &checkpoint.State{Keyed: true, Capacity: rp.capacity}
	for k, f := range counts {
		if f > 0 {
			st.Keys = append(st.Keys, k)
			st.Freqs = append(st.Freqs, f)
		}
	}
	store, err := checkpoint.Open(dir, checkpoint.Options{})
	if err != nil {
		return 0, 0, 0, err
	}
	if _, err := store.ReplayTail(func(wal.Record) error { return nil }); err != nil {
		store.Close()
		return 0, 0, 0, err
	}
	var writes, restores []float64
	for i := 0; i < 3; i++ {
		start := time.Now()
		err := store.Checkpoint(func() (*checkpoint.State, uint64, error) {
			sealed, err := store.Rotate()
			return st, sealed, err
		})
		writes = append(writes, float64(rp.span("checkpoint.write", start).Nanoseconds())/1e6)
		if err != nil {
			store.Close()
			return 0, 0, 0, err
		}
	}
	if err := store.Close(); err != nil {
		return 0, 0, 0, err
	}
	if fi, err := os.Stat(filepath.Join(dir, checkpoint.SnapshotName(3))); err == nil {
		bytes = float64(fi.Size())
	}
	for i := 0; i < 3; i++ {
		start := time.Now()
		s, err := checkpoint.Open(dir, checkpoint.Options{})
		if err != nil {
			return 0, 0, 0, err
		}
		if s.TakeState() == nil {
			s.Close()
			return 0, 0, 0, fmt.Errorf("checkpoint probe: snapshot not found on reopen")
		}
		_, err = s.ReplayTail(func(wal.Record) error { return nil })
		restores = append(restores, float64(rp.span("checkpoint.restore", start).Nanoseconds())/1e6)
		if cerr := s.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return 0, 0, 0, err
		}
	}
	return medianF(writes), medianF(restores), bytes, nil
}

// drainTransport stands in for the network under the client SDK: it reads
// the whole request body, notes when the client finished producing it, and
// answers as the server would.
type drainTransport struct {
	events int
	done   time.Time
}

func (d *drainTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		if _, err := io.Copy(io.Discard, r.Body); err != nil {
			return nil, err
		}
		r.Body.Close()
	}
	d.done = time.Now()
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": []string{"application/json"}},
		Body:       io.NopCloser(strings.NewReader(fmt.Sprintf(`{"applied":%d}`+"\n", d.events))),
		Request:    r,
	}, nil
}

// clientProbe times the client SDK from the call until the request body is
// fully produced, on the recorded batches: BulkIngest for the bulk
// workloads, SendEvents for /v1/events.
func (rp *replay) clientProbe(bulk bool) (float64, error) {
	dt := &drainTransport{}
	c, err := client.New("http://probe.invalid", client.WithHTTPClient(&http.Client{Transport: dt}))
	if err != nil {
		return 0, err
	}
	var total time.Duration
	n := 0
	for _, b := range rp.batches {
		events := make([]client.Event, len(b.tuples))
		for i, t := range b.tuples {
			events[i] = client.Event{Object: t.Key, Action: client.ActionAdd}
			if t.Action == sprofile.ActionRemove {
				events[i].Action = client.ActionRemove
			}
		}
		dt.events = len(events)
		start := time.Now()
		if bulk {
			_, err = c.BulkIngest(context.Background(), events)
		} else {
			_, err = c.SendEvents(context.Background(), events)
		}
		if err != nil {
			return 0, err
		}
		rp.tc.record("client.encode", 0, start, dt.done)
		total += dt.done.Sub(start)
		n++
	}
	return float64(total.Nanoseconds()) / 1e3 / float64(max(n, 1)), nil
}
