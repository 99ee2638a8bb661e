package sprofile

import (
	"strconv"
	"sync"
	"testing"
	"time"

	"sprofile/internal/idmap"
)

// TestQueryKeysPicksNarrowestCut holds one mapper stripe's lock, as a writer
// in the middle of a batch does, and checks which keyed queries still
// answer: a selection naming no key reads the dense profile's own cut, one
// key's count reads only that key's stripe, and a statistic that names keys
// quiesces every stripe, so it waits for the lock.
func TestQueryKeysPicksNarrowestCut(t *testing.T) {
	k, err := BuildKeyed[string](64, WithSharding(4))
	if err != nil {
		t.Fatal(err)
	}
	defer k.Close()
	held, other := "k0", ""
	for i := 1; other == ""; i++ {
		if key := "k" + strconv.Itoa(i); k.ids.StripeOf(key) != k.ids.StripeOf(held) {
			other = key
		}
	}
	for i := 0; i < 3; i++ {
		if err := k.Add(other); err != nil {
			t.Fatal(err)
		}
	}
	if err := k.Add(held); err != nil {
		t.Fatal(err)
	}

	locked, release := make(chan struct{}), make(chan struct{})
	var once sync.Once
	unlock := func() { once.Do(func() { close(release) }) }
	defer unlock()
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		_ = k.ids.BatchFunc(k.ids.StripeOf(held), func(idmap.StripeTxn[string]) error {
			close(locked)
			<-release
			return nil
		})
	}()
	<-locked

	query := func(q KeyedQuery[string]) <-chan KeyedQueryResult[string] {
		done := make(chan KeyedQueryResult[string], 1)
		go func() {
			res, err := k.QueryKeys(q)
			if err != nil {
				t.Errorf("QueryKeys(%+v): %v", q, err)
			}
			done <- res
		}()
		return done
	}
	const patience = 5 * time.Second
	for _, tc := range []struct {
		name  string
		q     KeyedQuery[string]
		check func(KeyedQueryResult[string]) bool
	}{
		{"summary", KeyedQuery[string]{Summary: true},
			func(r KeyedQueryResult[string]) bool { return r.Summary != nil && r.Summary.Total == 4 }},
		{"distribution", KeyedQuery[string]{Distribution: true},
			func(r KeyedQueryResult[string]) bool { return len(r.Distribution) == 3 }},
		{"count on another stripe", KeyedQuery[string]{Count: []string{other}},
			func(r KeyedQueryResult[string]) bool {
				return len(r.Counts) == 1 && r.Counts[0] == KeyedEntry[string]{Key: other, Frequency: 3}
			}},
	} {
		select {
		case res := <-query(tc.q):
			if !tc.check(res) {
				t.Errorf("%s while a stripe is held: got %+v", tc.name, res)
			}
		case <-time.After(patience):
			t.Fatalf("%s blocked on a held stripe lock", tc.name)
		}
	}

	mode := query(KeyedQuery[string]{Mode: true})
	select {
	case res := <-mode:
		t.Fatalf("mode answered (%+v) while a stripe lock was held; it must quiesce", res)
	case <-time.After(100 * time.Millisecond):
	}
	unlock()
	select {
	case res := <-mode:
		if res.Mode == nil || res.Mode.KeyedEntry != (KeyedEntry[string]{Key: other, Frequency: 3}) {
			t.Errorf("mode after release = %+v, want %s×3", res.Mode, other)
		}
	case <-time.After(patience):
		t.Fatal("mode still blocked after the stripe lock was released")
	}
	<-writerDone
}
