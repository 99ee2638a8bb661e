package main

import (
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"sprofile"
)

// reference is the sequential model every server is checked against: a
// plain *sprofile.Profile fed, in acknowledgement order, exactly the events
// the servers acknowledged. Universe key id maps to slot id; markers take
// the slots after the universe.
type reference struct {
	mu       sync.Mutex
	p        *sprofile.Profile
	universe int
	markers  map[string]int32
}

func newReference(capacity, universe int) (*reference, error) {
	p, err := sprofile.New(capacity, sprofile.WithStrictNonNegative())
	if err != nil {
		return nil, err
	}
	return &reference{p: p, universe: universe, markers: make(map[string]int32)}, nil
}

// applyUniverse records one generated universe event (id, or ^id for a
// remove). Only called before any connection runs.
func (r *reference) applyUniverse(e int32) {
	var err error
	if e >= 0 {
		err = r.p.Add(int(e))
	} else {
		err = r.p.Remove(int(^e))
	}
	if err != nil {
		panic(fmt.Sprintf("reference rejected generated event %d: %v", e, err))
	}
}

// ackPrefix records the first n events of a write the server applied: its
// marker key (slot markerRef), when it carried one, then its universe
// events.
func (r *reference) ackPrefix(evs []int32, marker string, markerRef int32, n int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if marker != "" && n > 0 {
		r.markers[marker] = markerRef
		if err := r.p.Add(int(markerRef)); err != nil {
			return fmt.Errorf("reference: marker %s: %w", marker, err)
		}
		n--
	}
	for _, e := range evs[:min(n, len(evs))] {
		var err error
		if e >= 0 {
			err = r.p.Add(int(e))
		} else {
			err = r.p.Remove(int(^e))
		}
		if err != nil {
			return fmt.Errorf("reference: event %d: %w", e, err)
		}
	}
	return nil
}

// slot resolves a server key to its reference slot.
func (r *reference) slot(key string) (int, bool) {
	if len(key) == 8 && key[0] == 'u' {
		id, err := strconv.Atoi(key[1:])
		return id, err == nil && id < r.universe
	}
	s, ok := r.markers[key]
	return int(s), ok
}

// finalQuery is the composite query of the workloads and of the final
// checks: mode, top 10, the 0.99 quantile and the summary.
var finalQuery = sprofile.KeyedQuery[string]{Mode: true, TopK: 10, Quantiles: []float64{0.99}, Summary: true}

// queryBody is finalQuery pre-encoded for the wire.
var queryBody = mustJSON(finalQuery)

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// compare checks a server's answer to finalQuery against the reference.
// Keys holding equal frequencies may be listed in any order, so entries are
// checked by frequency and by each named key's own reference count.
func (r *reference) compare(got sprofile.KeyedQueryResult[string]) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	want, err := r.p.Query(sprofile.Query{Mode: true, TopK: 10, Quantiles: []float64{0.99}, Summary: true})
	if err != nil {
		return fmt.Errorf("reference query: %w", err)
	}
	keyFreq := func(what string, e sprofile.KeyedEntry[string], freq int64) error {
		if e.Frequency != freq {
			return fmt.Errorf("%s: frequency %d, reference %d", what, e.Frequency, freq)
		}
		if e.Frequency == 0 {
			return nil // any zero slot may represent an empty key
		}
		s, ok := r.slot(e.Key)
		if !ok {
			return fmt.Errorf("%s: key %q was never acknowledged", what, e.Key)
		}
		c, _ := r.p.Count(s)
		if c != e.Frequency {
			return fmt.Errorf("%s: key %q reported at %d, reference holds %d", what, e.Key, e.Frequency, c)
		}
		return nil
	}
	if got.Mode == nil || got.Summary == nil || len(got.Quantiles) != 1 {
		return fmt.Errorf("answer lacks requested statistics")
	}
	if got.Mode.Ties != want.Mode.Ties {
		return fmt.Errorf("mode ties %d, reference %d", got.Mode.Ties, want.Mode.Ties)
	}
	if err := keyFreq("mode", got.Mode.KeyedEntry, want.Mode.Frequency); err != nil {
		return err
	}
	if len(got.TopK) != len(want.TopK) {
		return fmt.Errorf("top_k has %d entries, reference %d", len(got.TopK), len(want.TopK))
	}
	for i := range got.TopK {
		if err := keyFreq(fmt.Sprintf("top_k[%d]", i), got.TopK[i], want.TopK[i].Frequency); err != nil {
			return err
		}
	}
	if got.Quantiles[0].Frequency != want.Quantiles[0].Frequency {
		return fmt.Errorf("quantile 0.99: frequency %d, reference %d", got.Quantiles[0].Frequency, want.Quantiles[0].Frequency)
	}
	gs, ws := *got.Summary, *want.Summary
	if gs != ws {
		return fmt.Errorf("summary %+v, reference %+v", gs, ws)
	}
	return nil
}

// sameAnswer checks that a follower's answer equals the leader's statistic
// for statistic. Dense ids are assigned per node, so keys tied at one
// frequency may be named differently; frequencies, tie counts and the
// summary must agree exactly.
func sameAnswer(leader, follower sprofile.KeyedQueryResult[string]) error {
	shape := func(r sprofile.KeyedQueryResult[string]) string {
		s := fmt.Sprintf("mode=%d ties=%d q=", r.Mode.Frequency, r.Mode.Ties)
		for _, q := range r.Quantiles {
			s += fmt.Sprintf("%g:%d ", q.Q, q.Frequency)
		}
		s += "top="
		for _, e := range r.TopK {
			s += fmt.Sprintf("%d,", e.Frequency)
		}
		return s + fmt.Sprintf(" summary=%+v", *r.Summary)
	}
	if leader.Mode == nil || leader.Summary == nil || follower.Mode == nil || follower.Summary == nil {
		return fmt.Errorf("answer lacks requested statistics")
	}
	if a, b := shape(leader), shape(follower); a != b {
		return fmt.Errorf("follower answered %s, leader %s", b, a)
	}
	return nil
}
