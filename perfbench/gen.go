package main

import (
	"fmt"
	"math/rand"

	"sprofile"
	"sprofile/internal/checkpoint"
	"sprofile/internal/wal"
)

// Input generation. Everything here is a pure function of the seed: the
// same seed yields byte-identical request bodies and seeded history, so two
// commits measured on one seed receive exactly the same inputs.

// seededRand derives an independent deterministic stream for one purpose
// (salt) from the run seed.
func seededRand(seed int64, salt int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + salt*7_919 + 1))
}

// appendKey writes universe key id as a fixed-width object name.
func appendKey(dst []byte, id int32) []byte {
	var buf [8]byte
	buf[0] = 'u'
	for i := 7; i >= 1; i-- {
		buf[i] = byte('0' + id%10)
		id /= 10
	}
	return append(dst, buf[:]...)
}

func keyName(id int32) string { return string(appendKey(nil, id)) }

// markerName names the n-th marker key of connection conn; markers never
// collide with universe keys.
func markerName(conn, n int) string { return fmt.Sprintf("m%d-%07d", conn, n) }

// Wire encodings of one event, pre-rendered so generation is a byte copy.
var (
	lineHead   = []byte(`{"object":"`)
	lineAdd    = []byte(`","action":"add"}`)
	lineRemove = []byte(`","action":"remove"}`)
)

// batch is one pre-generated write body and the universe events it carries:
// id for an add, ^id for a remove.
type batch struct {
	body []byte
	evs  []int32
}

// parts returns the wire body of one send of b. A marker, when given, is
// spliced in as the first event: a fresh key whose visibility is probed
// after the ack. The parts are sent back to back, so the pooled body is
// never copied.
func (b *batch) parts(marker string, ndjson bool) [][]byte {
	if marker == "" {
		return [][]byte{b.body}
	}
	ev := append(append(append([]byte(nil), lineHead...), marker...), lineAdd...)
	if ndjson {
		return [][]byte{append(ev, '\n'), b.body}
	}
	head := append([]byte{'['}, ev...)
	if len(b.evs) > 0 {
		head = append(head, ',')
	}
	return [][]byte{head, b.body[1:]}
}

// tuples decodes the batch into the keyed form the library ingests.
func (b *batch) tuples() []sprofile.KeyedTuple[string] {
	out := make([]sprofile.KeyedTuple[string], len(b.evs))
	for i, e := range b.evs {
		if e >= 0 {
			out[i] = sprofile.KeyedTuple[string]{Key: keyName(e), Action: sprofile.ActionAdd}
		} else {
			out[i] = sprofile.KeyedTuple[string]{Key: keyName(^e), Action: sprofile.ActionRemove}
		}
	}
	return out
}

// stream generates the events of one connection. Keys are partitioned
// across connections (universe id ≡ conn mod conns), so every remove a
// stream emits targets a key only that stream adds: a remove can never
// overtake its add on another connection.
type stream struct {
	rng   *rand.Rand
	zipf  *rand.Zipf
	conn  int
	conns int
	// counts is the frequency of every universe key as generated so far;
	// shared between the streams of one run, each touching only its
	// partition. A remove is drawn only for a key whose count is positive.
	counts []int32
	// removeShare is the probability an event is a remove (when legal).
	removeShare float64
}

// newStream builds the generator of connection conn out of conns, drawing
// from the seed's stream salt. The zipf ranks cover this connection's share
// of a universe of len(counts) keys.
func newStream(seed, salt int64, conn, conns int, counts []int32, zipfS, removeShare float64) *stream {
	rng := seededRand(seed, salt)
	share := uint64((len(counts) - conn + conns - 1) / conns)
	return &stream{
		rng:         rng,
		zipf:        rand.NewZipf(rng, zipfS, 1, share-1),
		conn:        conn,
		conns:       conns,
		counts:      counts,
		removeShare: removeShare,
	}
}

// event draws the next universe event: a zipf-ranked key of this partition,
// removed with probability removeShare when that is legal, added otherwise.
func (s *stream) event() int32 {
	id := int32(s.zipf.Uint64())*int32(s.conns) + int32(s.conn)
	if s.rng.Float64() < s.removeShare && s.counts[id] > 0 {
		s.counts[id]--
		return ^id
	}
	s.counts[id]++
	return id
}

// next fills b with the stream's next body of n events, encoded as NDJSON
// (bulk) or as a JSON array (/v1/events). b's buffers are reused.
func (s *stream) next(b *batch, n int, ndjson bool) {
	b.body, b.evs = b.body[:0], b.evs[:0]
	if !ndjson {
		b.body = append(b.body, '[')
	}
	var kb [8]byte
	for i := 0; i < n; i++ {
		e := s.event()
		b.evs = append(b.evs, e)
		if !ndjson && i > 0 {
			b.body = append(b.body, ',')
		}
		b.body = append(b.body, lineHead...)
		if e >= 0 {
			b.body = append(b.body, appendKey(kb[:0], e)...)
			b.body = append(b.body, lineAdd...)
		} else {
			b.body = append(b.body, appendKey(kb[:0], ^e)...)
			b.body = append(b.body, lineRemove...)
		}
		if ndjson {
			b.body = append(b.body, '\n')
		}
	}
	if !ndjson {
		b.body = append(b.body, ']')
	}
}

// pool generates n bodies of size events that a connection sends in a
// cycle. The stream must start from all-zero counts: every remove then
// follows an add of the same key earlier in the pool, so the cycle is valid
// from any non-negative starting state and may be repeated indefinitely.
// After the first cycle the key set stops growing, which keeps the server's
// state, and with it the measurement, steady however fast the run goes.
func (s *stream) pool(n, size int, ndjson bool) []*batch {
	out := make([]*batch, n)
	for i := range out {
		out[i] = &batch{}
		s.next(out[i], size, ndjson)
	}
	return out
}

// history is the seeded data directory content of the bulk-wal workload: a
// snapshot image plus a log tail of coalesced batch records.
type history struct {
	capacity      int
	snapKeys      []string
	snapFreqs     []int64
	adds, removes uint64
	tail          [][]wal.BatchEntry
}

// genHistory draws snapEvents zipf events folded into a snapshot, then
// tailEvents more journaled as batches of batchSize. counts receives the
// final frequency of every universe key, and ref every event.
func genHistory(seed int64, counts []int32, capacity int, zipfS, removeShare float64, snapEvents, tailEvents, batchSize int, ref *reference) *history {
	s := newStream(seed, saltHistory, 0, 1, counts, zipfS, removeShare)
	h := &history{capacity: capacity}
	for i := 0; i < snapEvents; i++ {
		e := s.event()
		ref.applyUniverse(e)
		if e >= 0 {
			h.adds++
		} else {
			h.removes++
		}
	}
	for id, f := range counts {
		if f > 0 {
			h.snapKeys = append(h.snapKeys, keyName(int32(id)))
			h.snapFreqs = append(h.snapFreqs, int64(f))
		}
	}
	index := make(map[int32]int)
	for done := 0; done < tailEvents; {
		n := min(batchSize, tailEvents-done)
		clear(index)
		var entries []wal.BatchEntry
		for i := 0; i < n; i++ {
			e := s.event()
			ref.applyUniverse(e)
			id := e
			if id < 0 {
				id = ^id
			}
			j, ok := index[id]
			if !ok {
				j = len(entries)
				index[id] = j
				entries = append(entries, wal.BatchEntry{Key: keyName(id)})
			}
			if e >= 0 {
				entries[j].Adds++
			} else {
				entries[j].Removes++
			}
		}
		h.tail = append(h.tail, entries)
		done += n
	}
	return h
}

// write materialises the history as a checkpointed log directory through
// the checkpoint store's public protocol: one snapshot, then the tail.
func (h *history) write(dir string) error {
	st, err := checkpoint.Open(dir, checkpoint.Options{})
	if err != nil {
		return err
	}
	if st.TakeState() != nil {
		st.Close()
		return fmt.Errorf("history directory %s is not empty", dir)
	}
	if _, err := st.ReplayTail(func(wal.Record) error { return nil }); err != nil {
		st.Close()
		return err
	}
	err = st.Checkpoint(func() (*checkpoint.State, uint64, error) {
		sealed, err := st.Rotate()
		return &checkpoint.State{
			Keyed:    true,
			Keys:     h.snapKeys,
			Freqs:    h.snapFreqs,
			Capacity: h.capacity,
			Adds:     h.adds,
			Removes:  h.removes,
		}, sealed, err
	})
	if err != nil {
		st.Close()
		return err
	}
	for _, entries := range h.tail {
		if _, err := st.AppendBatch(entries); err != nil {
			st.Close()
			return err
		}
	}
	if err := st.Sync(); err != nil {
		st.Close()
		return err
	}
	return st.Close()
}
