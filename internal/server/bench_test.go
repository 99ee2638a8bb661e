package server

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"sprofile"
)

// Bulk-ingest workload: bulkEvents zipf(1.5) adds over a universe of
// bulkKeys keys, the skewed key popularity of a log stream.
const (
	bulkEvents = 65_536
	bulkKeys   = 100_000
)

// bulkWorkload returns the workload as an NDJSON body and as the keyed
// tuples it decodes to.
func bulkWorkload() ([]byte, []sprofile.KeyedTuple[string]) {
	rng := rand.New(rand.NewSource(1))
	zipf := rand.NewZipf(rng, 1.5, 1, bulkKeys-1)
	var body bytes.Buffer
	tuples := make([]sprofile.KeyedTuple[string], bulkEvents)
	for i := range tuples {
		key := fmt.Sprintf("u%07d", zipf.Uint64())
		fmt.Fprintf(&body, "{\"object\":%q,\"action\":\"add\"}\n", key)
		tuples[i] = sprofile.KeyedTuple[string]{Key: key, Action: sprofile.ActionAdd}
	}
	return body.Bytes(), tuples
}

// BenchmarkBulkIngest prices POST /v1/events/bulk per event: "http" runs
// the whole handler through Server.ServeHTTP (no network; decode, chunking
// and ApplyBatch on one shard), "apply" only the KeyedConcurrent.ApplyBatch
// calls the handler makes, in the same MaxBatch-sized chunks. Their
// difference is the wire cost: decoding and the HTTP plumbing. Both report
// ns/event and allocs/event; one op is one 65,536-event body.
func BenchmarkBulkIngest(b *testing.B) {
	body, tuples := bulkWorkload()
	b.Run("http", func(b *testing.B) {
		s, err := New(Config{Capacity: bulkKeys, Shards: 1})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		post := func() {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/events/bulk", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				b.Fatalf("bulk ingest: %d %s", rec.Code, rec.Body)
			}
		}
		post() // admit every key, so each timed body is steady-state
		measurePerEvent(b, post)
	})
	b.Run("apply", func(b *testing.B) {
		k, err := sprofile.BuildKeyed[string](bulkKeys, sprofile.WithSharding(1))
		if err != nil {
			b.Fatal(err)
		}
		defer k.Close()
		const chunk = 10_000 // the server's default MaxBatch
		apply := func() {
			for lo := 0; lo < len(tuples); lo += chunk {
				if _, err := k.ApplyBatch(tuples[lo:min(lo+chunk, len(tuples))]); err != nil {
					b.Fatal(err)
				}
			}
		}
		apply()
		measurePerEvent(b, apply)
	})
}

// measurePerEvent times b.N runs of op, each over bulkEvents events, and
// reports the cost per event.
func measurePerEvent(b *testing.B, op func()) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op()
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	events := float64(b.N) * bulkEvents
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/events, "ns/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/events, "allocs/event")
}
