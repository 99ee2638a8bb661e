package sprofile

import (
	"errors"

	"sprofile/internal/core"
	"sprofile/internal/idmap"
)

// KeyedEntry pairs a caller key with its frequency. The JSON form is the one
// the keyed composite-query wire format uses.
type KeyedEntry[K comparable] struct {
	Key       K     `json:"key"`
	Frequency int64 `json:"frequency"`
}

// Keyed profiles objects identified by arbitrary comparable keys (user names,
// URLs, sparse numeric ids). It combines an id mapper with an S-Profile: the
// mapper assigns each live key a dense id, the profile tracks the dense ids,
// and every query is translated back to keys.
//
// Capacity semantics: a Keyed profile can track at most m keys at once. With
// recycling enabled (the default), a key whose frequency returns to zero has
// its dense id released on its next eviction scan, so m bounds the number of
// *currently relevant* objects rather than all objects ever seen. Keyed
// profiles with recycling are always strict non-negative, because a recycled
// id must start from a clean zero frequency.
//
// A Keyed profile wraps any dense-id Profiler — a plain Profile by default
// (NewKeyed), or whatever Build assembled (NewKeyedOver), e.g. a sharded
// profile for lower lock contention. The id mapper itself is not safe for
// concurrent use; serialise Keyed access in the caller even when the inner
// profiler is synchronized, or use BuildKeyed's KeyedConcurrent, which is
// safe for concurrent use end to end.
type Keyed[K comparable] struct {
	keyedQueries[K]
	keyedStatViews[K] // getters as one-field queries
	ids               *idmap.Mapper[K]
	recycle           bool
}

// keyedQueries is the read-side shared by Keyed and KeyedConcurrent: the
// dense profiler answers each composite query, and the resolver translates
// its ids back to keys. Embedding it keeps the translation logic in one
// place; the ingestion paths (and their locking disciplines) stay with the
// concrete types.
type keyedQueries[K comparable] struct {
	profile  Profiler
	resolver keyResolver[K]
}

// keyResolver resolves a dense id back to its key; both idmap.Mapper and
// idmap.Striped satisfy it.
type keyResolver[K comparable] interface {
	Key(id int) (K, bool)
}

// Cap returns the maximum number of concurrently tracked keys.
func (q *keyedQueries[K]) Cap() int { return q.profile.Cap() }

// Total returns the sum of all frequencies.
func (q *keyedQueries[K]) Total() int64 { return q.profile.Total() }

// entryToKeyed converts a dense-id entry into a keyed entry; slots not bound
// to a key report the zero value of K.
func (q *keyedQueries[K]) entryToKeyed(e Entry) KeyedEntry[K] {
	key, _ := q.resolver.Key(e.Object)
	return KeyedEntry[K]{Key: key, Frequency: e.Frequency}
}

// translate converts dense-id entries into keyed entries; an empty input
// yields nil.
func (q *keyedQueries[K]) translate(entries []Entry) []KeyedEntry[K] {
	if len(entries) == 0 {
		return nil
	}
	out := make([]KeyedEntry[K], len(entries))
	for i, e := range entries {
		out[i] = q.entryToKeyed(e)
	}
	return out
}

// Profile exposes the underlying dense-id profiler for advanced queries
// (rank lookups, composite queries, snapshots via the Snapshotter
// capability) as a read-only view: updates through it return ErrReadOnly,
// because mutating the dense profile behind the mapper's back
// desynchronises the key mapping and the recycling bookkeeping. Callers
// that accept that hazard can get the writable profiler back with
// (*ReadOnlyProfiler).Unwrap.
func (q *keyedQueries[K]) Profile() Profiler { return NewReadOnly(q.profile) }

// answer evaluates a keyed composite query: the dense statistics through
// the inner profiler's own Querier capability (see QueryProfiler), every
// dense id in them resolved back to its key, and each requested key's
// frequency read through count (unknown keys count as zero; count may be
// nil when kq.Count is empty). The caller pins the cut: the resolver and
// count must not change while answer runs (single goroutine for Keyed, a
// quiesced mapper for KeyedConcurrent, one epoch snapshot for AsyncKeyed).
// A selection that names no key and counts none uses neither, so the dense
// profile's own cut is enough.
func (q *keyedQueries[K]) answer(kq KeyedQuery[K], count func(K) (int64, error)) (KeyedQueryResult[K], error) {
	dr, err := QueryProfiler(q.profile, kq.dense())
	if err != nil {
		return KeyedQueryResult[K]{}, err
	}
	var out KeyedQueryResult[K]
	if len(kq.Count) > 0 {
		out.Counts = make([]KeyedEntry[K], len(kq.Count))
		for i, key := range kq.Count {
			f, err := count(key)
			if err != nil {
				return KeyedQueryResult[K]{}, err
			}
			out.Counts[i] = KeyedEntry[K]{Key: key, Frequency: f}
		}
	}
	if dr.Mode != nil {
		out.Mode = &KeyedExtreme[K]{KeyedEntry: q.entryToKeyed(dr.Mode.Entry), Ties: dr.Mode.Ties}
	}
	if dr.Min != nil {
		out.Min = &KeyedExtreme[K]{KeyedEntry: q.entryToKeyed(dr.Min.Entry), Ties: dr.Min.Ties}
	}
	out.TopK = q.translate(dr.TopK)
	out.BottomK = q.translate(dr.BottomK)
	out.KthLargest = q.translate(dr.KthLargest)
	if dr.Median != nil {
		e := q.entryToKeyed(*dr.Median)
		out.Median = &e
	}
	if len(dr.Quantiles) > 0 {
		out.Quantiles = make([]KeyedQuantile[K], len(dr.Quantiles))
		for i, qe := range dr.Quantiles {
			out.Quantiles[i] = KeyedQuantile[K]{Q: qe.Q, KeyedEntry: q.entryToKeyed(qe.Entry)}
		}
	}
	if dr.Majority != nil {
		out.Majority = &KeyedMajority[K]{Majority: dr.Majority.Majority}
		if dr.Majority.Majority {
			out.Majority.KeyedEntry = q.entryToKeyed(dr.Majority.Entry)
		}
	}
	out.Distribution = dr.Distribution
	out.Summary = dr.Summary
	return out, nil
}

// KeyOf resolves a dense id back to its key, when one is assigned.
func (q *keyedQueries[K]) KeyOf(id int) (K, bool) { return q.resolver.Key(id) }

// KeyedOption configures a Keyed profile.
type KeyedOption func(*keyedOptions)

type keyedOptions struct {
	recycle bool
}

// WithoutRecycling keeps a key's dense id assigned even after its frequency
// returns to zero. Use it when the key set is closed (e.g. a fixed catalogue)
// or when negative frequencies are meaningful; without recycling the profile
// follows the paper's default semantics and allows negative frequencies.
func WithoutRecycling() KeyedOption {
	return func(o *keyedOptions) { o.recycle = false }
}

// NewKeyed returns a Keyed profile able to track up to m concurrent keys,
// backed by a plain Profile.
func NewKeyed[K comparable](m int, opts ...KeyedOption) (*Keyed[K], error) {
	o := keyedOptions{recycle: true}
	for _, opt := range opts {
		opt(&o)
	}
	var coreOpts []Option
	if o.recycle {
		coreOpts = append(coreOpts, WithStrictNonNegative())
	}
	p, err := core.New(m, coreOpts...)
	if err != nil {
		return nil, err
	}
	return newKeyedOver[K](p, o)
}

// NewKeyedOver returns a Keyed profile backed by an existing dense-id
// profiler — typically one assembled with Build, so key-addressed callers
// get sharding or durability by swapping the Build options. With recycling
// enabled (the default) the profiler must have been built with
// WithStrictNonNegative, or idle ids cannot be detected reliably. The caller
// must stop using the profiler directly afterwards.
func NewKeyedOver[K comparable](p Profiler, opts ...KeyedOption) (*Keyed[K], error) {
	if p == nil {
		return nil, errNilProfiler
	}
	o := keyedOptions{recycle: true}
	for _, opt := range opts {
		opt(&o)
	}
	return newKeyedOver[K](p, o)
}

func newKeyedOver[K comparable](p Profiler, o keyedOptions) (*Keyed[K], error) {
	ids, err := idmap.New[K](p.Cap())
	if err != nil {
		return nil, err
	}
	k := &Keyed[K]{
		keyedQueries: keyedQueries[K]{profile: p, resolver: ids},
		ids:          ids,
		recycle:      o.recycle,
	}
	k.keyedStatViews = keyedStatViews[K]{k}
	return k, nil
}

// MustNewKeyed is NewKeyed for callers with a known-good capacity; it panics
// on error.
func MustNewKeyed[K comparable](m int, opts ...KeyedOption) *Keyed[K] {
	k, err := NewKeyed[K](m, opts...)
	if err != nil {
		panic(err)
	}
	return k
}

// Tracked returns the number of keys currently holding a dense id.
func (k *Keyed[K]) Tracked() int { return k.ids.Len() }

// Add increments the frequency of key, assigning it a dense id if needed.
// When the profile is full, Add first tries to recycle the id of a key whose
// frequency is zero; if none exists it returns ErrKeyedFull.
func (k *Keyed[K]) Add(key K) error {
	id, isNew, err := k.ids.Acquire(key)
	if errors.Is(err, idmap.ErrFull) && k.recycle {
		if k.evictOneZero() {
			id, isNew, err = k.ids.Acquire(key)
		}
	}
	if err != nil {
		return err
	}
	_ = isNew
	return k.profile.Add(id)
}

// evictOneZero releases the dense id of one key whose frequency is zero,
// returning whether an id was freed. Cost O(1): the profile keeps zero
// frequencies contiguous in its sorted order, so a single rank probe finds a
// candidate.
func (k *Keyed[K]) evictOneZero() bool {
	// The minimum frequency in a strict profile is zero exactly when at least
	// one tracked key is idle (frequency zero).
	entry, _, err := k.profile.Min()
	if err != nil || entry.Frequency != 0 {
		return false
	}
	key, ok := k.ids.Key(entry.Object)
	if !ok {
		// The zero-frequency slot is not bound to any key (never used); it is
		// already available to Acquire.
		return false
	}
	if _, err := k.ids.Release(key); err != nil {
		return false
	}
	return true
}

// Track assigns key a dense id without counting anything, so a catalogue can
// be registered ahead of its events. A tracked key sits at frequency zero
// and, with recycling enabled, remains an eviction candidate until its first
// Add.
func (k *Keyed[K]) Track(key K) error {
	_, _, err := k.ids.Acquire(key)
	if errors.Is(err, idmap.ErrFull) && k.recycle && k.evictOneZero() {
		_, _, err = k.ids.Acquire(key)
	}
	return err
}

// Remove decrements the frequency of key. Removing an unknown key is an
// error: with recycling enabled frequencies cannot go negative, and without
// recycling the key must still be added first to receive an id.
func (k *Keyed[K]) Remove(key K) error {
	id, err := k.ids.DenseID(key)
	if err != nil {
		return err
	}
	return k.profile.Remove(id)
}

// Apply applies one (key, action) event.
func (k *Keyed[K]) Apply(key K, action Action) error {
	switch action {
	case ActionAdd:
		return k.Add(key)
	case ActionRemove:
		return k.Remove(key)
	default:
		return errInvalidAction(action)
	}
}

// QueryKeys answers a keyed composite query: the dense statistics are read
// through the inner profiler's Querier capability, requested per-key counts
// are resolved through the id mapping (unknown keys count as zero, like the
// Count getter), and every dense id in the answer is translated back to its
// key. A Keyed profile is single-goroutine, so the whole sequence is one
// consistent cut by construction.
func (k *Keyed[K]) QueryKeys(q KeyedQuery[K]) (KeyedQueryResult[K], error) {
	return k.answer(q, k.Count)
}

// Count returns the current frequency of key (zero for unknown keys).
func (k *Keyed[K]) Count(key K) (int64, error) {
	id, err := k.ids.DenseID(key)
	if err != nil {
		if errors.Is(err, idmap.ErrUnknownKey) {
			return 0, nil
		}
		return 0, err
	}
	return k.profile.Count(id)
}
