package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"sprofile"
)

// bodies generates n batches of stream conn and returns their wire bodies.
func bodies(seed int64, conn, conns, n, size int, ndjson bool) [][]byte {
	counts := make([]int32, 10_000)
	s := newStream(seed, saltPool, conn, conns, counts, zipfS, removeShare)
	var out [][]byte
	b := &batch{}
	for i := 0; i < n; i++ {
		s.next(b, size, ndjson)
		out = append(out, bytes.Clone(b.body))
	}
	return out
}

func TestSameSeedSameBodies(t *testing.T) {
	for _, ndjson := range []bool{true, false} {
		a := bodies(7, 1, 2, 50, 64, ndjson)
		b := bodies(7, 1, 2, 50, 64, ndjson)
		for i := range a {
			if !bytes.Equal(a[i], b[i]) {
				t.Fatalf("ndjson=%v: batch %d differs between two generations of seed 7", ndjson, i)
			}
		}
		c := bodies(8, 1, 2, 50, 64, ndjson)
		same := 0
		for i := range a {
			if bytes.Equal(a[i], c[i]) {
				same++
			}
		}
		if same == len(a) {
			t.Fatalf("ndjson=%v: seeds 7 and 8 generated identical bodies", ndjson)
		}
	}
}

// TestPartitionedRemoves checks that each stream only touches its own keys
// and never removes a key below zero, even with the streams interleaved.
func TestPartitionedRemoves(t *testing.T) {
	const conns = 2
	counts := make([]int32, 5_000)
	model := make([]int32, len(counts))
	streams := []*stream{
		newStream(3, saltPool, 0, conns, counts, zipfS, 0.4),
		newStream(3, saltPool+1, 1, conns, counts, zipfS, 0.4),
	}
	removes := 0
	b := &batch{}
	for i := 0; i < 400; i++ {
		s := streams[i%conns]
		s.next(b, 32, true)
		for _, e := range b.evs {
			id := e
			if e < 0 {
				id = ^e
			}
			if int(id)%conns != s.conn {
				t.Fatalf("stream %d emitted key %d of another partition", s.conn, id)
			}
			if e >= 0 {
				model[id]++
			} else {
				removes++
				if model[id]--; model[id] < 0 {
					t.Fatalf("stream %d removed key %d below zero", s.conn, id)
				}
			}
		}
	}
	if removes == 0 {
		t.Fatal("no removes generated")
	}
	for id := range counts {
		if counts[id] != model[id] {
			t.Fatalf("key %d: stream counts %d, replayed %d", id, counts[id], model[id])
		}
	}
}

// TestHistoryDeterministic checks that a seed writes byte-identical
// history directories and that the reference saw every history event.
func TestHistoryDeterministic(t *testing.T) {
	write := func(dir string) *reference {
		ref, err := newReference(12_000, 10_000)
		if err != nil {
			t.Fatal(err)
		}
		h := genHistory(5, make([]int32, 10_000), 12_000, zipfS, removeShare, 20_000, 4_000, 512, ref)
		if err := h.write(dir); err != nil {
			t.Fatal(err)
		}
		return ref
	}
	a, b := filepath.Join(t.TempDir(), "a"), filepath.Join(t.TempDir(), "b")
	ref := write(a)
	write(b)
	entries, err := os.ReadDir(a)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 2 {
		t.Fatalf("history holds %d files, want a snapshot and a tail", len(entries))
	}
	for _, e := range entries {
		x, err := os.ReadFile(filepath.Join(a, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		y, err := os.ReadFile(filepath.Join(b, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			t.Fatalf("%s differs between two writes of seed 5", e.Name())
		}
	}
	// The recovered profile must equal the reference fed the same events.
	k, err := sprofile.BuildKeyed[string](12_000, sprofile.WithWAL(a))
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	got, err := k.QueryKeys(finalQuery)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.compare(got); err != nil {
		t.Fatalf("recovered history: %v", err)
	}
}

// TestCompareDetectsDivergence checks the reference rejects an answer that
// misses one acknowledged event.
func TestCompareDetectsDivergence(t *testing.T) {
	ref, err := newReference(100, 50)
	if err != nil {
		t.Fatal(err)
	}
	k, err := sprofile.BuildKeyed[string](100)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int32, 50)
	s := newStream(1, saltPool, 0, 1, counts, zipfS, removeShare)
	b := &batch{}
	for i := 0; i < 20; i++ {
		s.next(b, 10, true)
		tuples := b.tuples()
		if i == 19 {
			tuples = tuples[1:] // the server "loses" one event
		}
		if _, err := k.ApplyBatch(tuples); err != nil {
			t.Fatal(err)
		}
		if err := ref.ackPrefix(b.evs, "", 0, len(b.evs)); err != nil {
			t.Fatal(err)
		}
	}
	got, err := k.QueryKeys(finalQuery)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.compare(got); err == nil {
		t.Fatal("compare accepted an answer missing an acknowledged event")
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "client.request", Start: 0, End: 100, Parent: -1},
		{Name: "server.handler", Start: 10, End: 40, Parent: 0},
		{Name: "server.handler", Start: 30, End: 60, Parent: 0},
		{Name: "server.handler", Start: 90, End: 120, Parent: 0},
	}
	self := selfTimes(spans)
	// Children cover [10,60) and [90,100): 60 of the parent's 100 ns.
	if self[0] != 40 {
		t.Fatalf("parent self time %d, want 40", self[0])
	}
	if self[1] != 30 {
		t.Fatalf("leaf self time %d, want its duration 30", self[1])
	}
}

// TestPoolCycles checks that a pool generated from zero counts can be sent
// over and over, from any non-negative state, without a remove ever taking
// a key below zero.
func TestPoolCycles(t *testing.T) {
	counts := make([]int32, 3_000)
	pool := newStream(9, saltPool, 0, 1, counts, zipfS, 0.4).pool(20, 32, true)
	state := make([]int32, len(counts))
	for cycle := 0; cycle < 3; cycle++ {
		for i, b := range pool {
			for _, e := range b.evs {
				if e >= 0 {
					state[e]++
				} else if state[^e]--; state[^e] < 0 {
					t.Fatalf("cycle %d body %d removes key %d below zero", cycle, i, ^e)
				}
			}
		}
	}
}

// TestMarkerParts checks that splicing a marker into a pooled body yields a
// well-formed request in both encodings, with the marker first.
func TestMarkerParts(t *testing.T) {
	for _, ndjson := range []bool{true, false} {
		b := &batch{}
		newStream(2, saltPool, 0, 1, make([]int32, 100), zipfS, removeShare).next(b, 3, ndjson)
		body := bytes.Join(b.parts("m0-0000001", ndjson), nil)
		var events []struct{ Object, Action string }
		if ndjson {
			for _, line := range bytes.Split(bytes.TrimSpace(body), []byte("\n")) {
				var ev struct{ Object, Action string }
				if err := json.Unmarshal(line, &ev); err != nil {
					t.Fatalf("ndjson line %q: %v", line, err)
				}
				events = append(events, ev)
			}
		} else if err := json.Unmarshal(body, &events); err != nil {
			t.Fatalf("array body %q: %v", body, err)
		}
		if len(events) != 4 || events[0].Object != "m0-0000001" || events[0].Action != "add" {
			t.Fatalf("ndjson=%v: got %+v, want the marker then 3 events", ndjson, events)
		}
		if !bytes.Equal(bytes.Join(b.parts("", ndjson), nil), b.body) {
			t.Fatalf("ndjson=%v: unmarked send differs from the pooled body", ndjson)
		}
	}
}
