package sprofile

import (
	"sync"

	"sprofile/internal/core"
)

// Concurrent wraps a Profile with a read-write mutex so that multiple
// goroutines can update and query it. Updates take the write lock; queries
// take the read lock, so concurrent readers do not serialise each other.
//
// The O(1) update bound of the underlying structure is preserved; the mutex
// adds a constant overhead per call. For very high ingest rates prefer
// sharding by object id and merging distributions at query time.
type Concurrent struct {
	statViews // getters as one-field Queries, each under one read lock
	mu        sync.RWMutex
	p         *core.Profile
}

// NewConcurrent returns a mutex-protected S-Profile over m dense object ids.
func NewConcurrent(m int, opts ...Option) (*Concurrent, error) {
	p, err := core.New(m, opts...)
	if err != nil {
		return nil, err
	}
	return WrapConcurrent(p), nil
}

// MustNewConcurrent is NewConcurrent for callers with a known-good capacity;
// it panics on error.
func MustNewConcurrent(m int, opts ...Option) *Concurrent {
	c, err := NewConcurrent(m, opts...)
	if err != nil {
		panic(err)
	}
	return c
}

// WrapConcurrent protects an existing profile. The caller must stop using the
// profile directly afterwards.
func WrapConcurrent(p *Profile) *Concurrent {
	c := &Concurrent{p: p}
	c.statViews = statViews{c}
	return c
}

// Add increments the frequency of object x.
func (c *Concurrent) Add(x int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.p.Add(x)
}

// Remove decrements the frequency of object x.
func (c *Concurrent) Remove(x int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.p.Remove(x)
}

// Apply applies one log tuple.
func (c *Concurrent) Apply(t Tuple) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.p.Apply(t)
}

// ApplyAll applies tuples in order, holding the write lock once for the whole
// batch; it returns the number applied and the first error.
func (c *Concurrent) ApplyAll(tuples []Tuple) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.p.ApplyAll(tuples)
}

// AddN raises the frequency of object x by k in one step under one lock
// acquisition.
func (c *Concurrent) AddN(x int, k int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.p.AddN(x, k)
}

// RemoveN lowers the frequency of object x by k in one step under one lock
// acquisition.
func (c *Concurrent) RemoveN(x int, k int64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.p.RemoveN(x, k)
}

// ApplyDelta applies one coalesced delta.
func (c *Concurrent) ApplyDelta(d Delta) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.p.ApplyDelta(d)
}

// ApplyDeltas applies a coalesced batch, holding the write lock once for the
// whole batch; it returns the number of deltas applied and the first error.
func (c *Concurrent) ApplyDeltas(deltas []Delta) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.p.ApplyDeltas(deltas)
}

// Count returns the current frequency of object x.
func (c *Concurrent) Count(x int) (int64, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.p.Count(x)
}

// Cap returns the number of object slots.
func (c *Concurrent) Cap() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.p.Cap()
}

// Total returns the sum of all frequencies.
func (c *Concurrent) Total() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.p.Total()
}

// Query answers a composite query atomically: the read lock is held once
// across the whole evaluation, so every selected statistic — Mode, TopK,
// quantiles, the distribution, the summary — comes from the same cut of the
// profile, and a composite costs one lock round-trip instead of one per
// statistic.
func (c *Concurrent) Query(q Query) (QueryResult, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return core.EvalQuery(c.p, q)
}

// Snapshot returns a point-in-time deep copy of the profile that can be
// queried without any further locking. The error is always nil; the signature
// matches the Snapshotter capability shared with Sharded.
func (c *Concurrent) Snapshot() (*Profile, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.p.Clone(), nil
}

// LoadFrequencies replaces the profile's entire state under the write lock:
// object x ends at frequency freqs[x] with the adds/removes counters set to
// the given totals. It is the restore half of the FrequencyLoader capability
// checkpoint recovery uses.
func (c *Concurrent) LoadFrequencies(freqs []int64, adds, removes uint64) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.p.LoadFrequencies(freqs, adds, removes)
}
