package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// layerMetrics derives the per-layer figures of a traced run: span self
// times, counts the generator saw, the replay probes, and the tracing
// overhead (traced slices minus untraced slices of the same run).
func layerMetrics(e *env, o *outcome, bulk bool) ([]metric, error) {
	tc := e.tc
	tc.link()
	self := selfTimes(tc.spans)
	hasChild := make([]bool, len(tc.spans))
	for _, s := range tc.spans {
		if s.Parent >= 0 {
			hasChild[s.Parent] = true
		}
	}
	var transport, handler, fetch []int64
	handlerOf := make(map[uint64]int64)
	for i, s := range tc.spans {
		switch s.Name {
		case "client.request":
			if hasChild[i] {
				transport = append(transport, self[i])
			}
		case "server.handler":
			handler = append(handler, self[i])
			handlerOf[s.Req] = self[i]
		case "replication.fetch":
			fetch = append(fetch, self[i])
		}
	}

	rp := newReplay(tc, e.rec, o.capacity)
	if len(rp.batches) == 0 {
		return nil, fmt.Errorf("no batches were recorded")
	}
	memBatch, keyedQ, err := rp.keyedProbe("", "apply", false)
	if err != nil {
		return nil, fmt.Errorf("keyed probe: %w", err)
	}
	asyncWAL := ""
	if o.wal {
		asyncWAL = filepath.Join(e.dir, "probe-async-wal")
	}
	asyncBatch, flushes, err := rp.asyncProbe(asyncWAL)
	if err != nil {
		return nil, fmt.Errorf("async probe: %w", err)
	}
	// The apply each write handler performed: the bulk route's ApplyBatch,
	// journaled when the server has a WAL, or the /v1/events route's one
	// Apply per event.
	served := memBatch
	switch {
	case o.wal:
		served, _, err = rp.keyedProbe(filepath.Join(e.dir, "probe-keyed-wal"), "apply.journaled", !bulk)
	case !bulk:
		served, _, err = rp.keyedProbe("", "apply.per_event", true)
	}
	if err != nil {
		return nil, fmt.Errorf("keyed served-apply probe: %w", err)
	}
	position := make(map[[2]int]int)
	for i, b := range rp.batches {
		position[[2]int{b.conn, b.idx}] = i
	}
	var decode []float64
	for _, s := range e.rec.sends {
		i, ok := position[[2]int{s.conn, s.idx}]
		if h, traced := handlerOf[s.rid]; ok && traced && !s.marked {
			decode = append(decode, float64(h-served[i].Nanoseconds())/float64(len(rp.batches[i].tuples)))
		}
	}
	resolveNs, newRatio, err := rp.idmapProbe()
	if err != nil {
		return nil, fmt.Errorf("idmap probe: %w", err)
	}
	updateNs, coreQueryUs, heapNs, err := rp.coreProbe()
	if err != nil {
		return nil, fmt.Errorf("core probe: %w", err)
	}
	appendUs, fsyncs, walBPE, err := rp.walProbe(filepath.Join(e.dir, "probe-wal"))
	if err != nil {
		return nil, fmt.Errorf("wal probe: %w", err)
	}
	ckptWrite, ckptRestore, ckptBytes, err := rp.checkpointProbe(filepath.Join(e.dir, "probe-checkpoint"))
	if err != nil {
		return nil, fmt.Errorf("checkpoint probe: %w", err)
	}
	encodeUs, err := rp.clientProbe(bulk)
	if err != nil {
		return nil, fmt.Errorf("client probe: %w", err)
	}

	perEvent := func(ds []time.Duration) float64 {
		var t time.Duration
		for _, d := range ds {
			t += d
		}
		return float64(t.Nanoseconds()) / float64(max(rp.events, 1))
	}
	distinct := 0
	for _, ks := range rp.distinct {
		distinct += len(ks)
	}
	// The tail percentiles pool both kinds of slice: tracing adds
	// microseconds, while the tails are milliseconds and need every sample.
	all := func(l *lat) []int64 { return append(append([]int64(nil), l.plain...), l.traced...) }
	plain, trac := endToEnd(o, false), endToEnd(o, true)
	overhead := func(i int) float64 { return trac[i].value - plain[i].value }
	ms := []metric{
		{"client.encode_us_per_req", "us", encodeUs},
		{"transport.us_p50", "us", quantile(transport, 0.5, 1e3)},
		{"server.handler_us_p50", "us", quantile(handler, 0.5, 1e3)},
		{"server.handler_us_p99", "us", quantile(handler, 0.99, 1e3)},
		{"server.decode_ns_per_event", "ns", medianF(decode)},
		{"server.shed_503", "count", float64(o.s.shed)},
		{"keyed.apply_batch_ns_per_event", "ns", perEvent(memBatch)},
		{"keyed.coalesce_ratio", "ratio", float64(distinct) / float64(max(rp.events, 1))},
		{"keyed.query_us_p50", "us", quantile(keyedQ, 0.5, 1e3)},
		{"keyed.query_us_p99", "us", quantile(keyedQ, 0.99, 1e3)},
		{"idmap.resolve_ns_per_key", "ns", resolveNs},
		{"idmap.new_key_ratio", "ratio", newRatio},
		{"core.update_ns", "ns", updateNs},
		{"core.query_us", "us", coreQueryUs},
		{"baseline.heap_update_ns", "ns", heapNs},
		{"core.heap_speedup", "x", heapNs / max(updateNs, 1e-9)},
		{"wal.append_us_per_batch", "us", appendUs},
		{"wal.fsync_us_p50", "us", quantile(fsyncs, 0.5, 1e3)},
		{"wal.fsync_us_p99", "us", quantile(fsyncs, 0.99, 1e3)},
		{"wal.fsyncs_per_write", "ratio", float64(o.fsyncs) / float64(max(o.s.writes, 1))},
		{"wal.bytes_per_event", "B", walBPE},
		{"checkpoint.write_ms", "ms", ckptWrite},
		{"checkpoint.restore_ms", "ms", ckptRestore},
		{"checkpoint.per_mevent", "1/Mevent", float64(o.checkpoints) / max(float64(o.s.events)/1e6, 1e-9)},
		{"checkpoint.bytes", "B", ckptBytes},
		{"async.enqueue_ns_per_event", "ns", perEvent(asyncBatch)},
		{"async.flush_ms", "ms", quantile(flushes, 0.5, 1e6)},
		{"replication.fetch_us_p50", "us", quantile(fetch, 0.5, 1e3)},
		{"replication.bytes", "B", float64(tc.replBytes.Load())},
		{"follower.catchup_ms", "ms", float64(o.catchUp.Nanoseconds()) / 1e6},
		{"ack_p99_ms", "ms", quantile(all(&o.s.ack), 0.99, 1e6)},
		{"query_p99_ms", "ms", quantile(all(&o.s.query), 0.99, 1e6)},
		{"visible_p99_ms", "ms", quantile(all(&o.s.visible), 0.99, 1e6)},
		{"loadgen.late_p99_ms", "ms", quantile(all(&o.s.late), 0.99, 1e6)},
		{"error_ratio", "ratio", float64(o.s.failed+int64(len(o.checks))) / float64(max(o.s.attempted, 1))},
		{"overhead.acked_events_per_s", "events/s", overhead(0)},
		{"overhead.ack_p50_ms", "ms", overhead(1)},
		{"overhead.query_p50_ms", "ms", overhead(2)},
	}
	return ms, nil
}
