package sprofile

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"sprofile/internal/core"
)

// AsyncKeyed wraps a KeyedConcurrent with the async ingest plane: keyed
// events are enqueued to per-producer SPSC mailboxes, routed by the key's
// mapper stripe, and applied by one goroutine per stripe through
// KeyedConcurrent.ApplyBatch — so the batch path's coalescing, single
// stripe-lock resolution, one-WAL-record-per-batch journaling and
// group-commit fsync all apply per mailbox drain. Reads answer from
// epoch-published immutable snapshots of the dense profile, translated back
// to keys through the live id mapper.
//
// The bounded-staleness contract and Flush/Close semantics are those of
// Async. Two keyed specifics:
//
//   - Stream-dependent errors — removing an unknown key, ErrKeyedFull when
//     no id can be recycled, strict-mode violations — surface on the next
//     Flush, not at the enqueueing call. Argument errors (invalid action,
//     a key the write-ahead log cannot record) stay synchronous.
//   - Key translation uses the live mapper, so in rare cases a key read
//     from an epoch snapshot may have been recycled since that epoch was
//     published. KeyedConcurrent rules this out by quiescing its stripes
//     for every global query that names keys; the async plane's reads
//     never block ingest.
//
// Construct with NewAsyncKeyed over a BuildKeyed profile, or in one step
// with BuildKeyedAsync.
type AsyncKeyed[K comparable] struct {
	keyedStatViews[K] // getters as one-field queries on one epoch snapshot
	k                 *KeyedConcurrent[K]
	// sharded is the dense profile; its shard geometry matches the mapper
	// stripes, so applier i owns stripe i's home shard.
	sharded *Sharded

	plane *asyncPlane[KeyedTuple[K]]
	// snaps holds the newest per-shard snapshot; guarded by plane.publishMu.
	snaps []*core.Profile
	view  atomic.Pointer[queryableProfiler]

	pool chan *AsyncKeyedProducer[K]
}

// NewAsyncKeyed wraps k — a BuildKeyed profile whose dense half is sharded
// with the mapper's stripe geometry (the default; Synchronized profiles are
// rejected) — with the async ingest plane described on AsyncKeyed. The
// wrapped profile must no longer be updated directly.
func NewAsyncKeyed[K comparable](k *KeyedConcurrent[K], policy AsyncPolicy) (*AsyncKeyed[K], error) {
	if k == nil {
		return nil, fmt.Errorf("%w: nil keyed profiler", ErrBuildConfig)
	}
	sharded, ok := k.profile.(*Sharded)
	if !ok {
		return nil, fmt.Errorf("%w: async keyed ingest needs a sharded dense profile (got %T); build without Synchronized", ErrBuildConfig, k.profile)
	}
	if sharded.Shards() != k.ids.NumStripes() {
		return nil, fmt.Errorf("%w: shard/stripe geometry mismatch (%d shards, %d stripes)", ErrBuildConfig, sharded.Shards(), k.ids.NumStripes())
	}
	ak := &AsyncKeyed[K]{k: k, sharded: sharded}
	ak.keyedStatViews = keyedStatViews[K]{ak}
	// crossShard: a stripe whose dense-id range is exhausted borrows ids
	// from a neighbouring shard's range, so an apply on stripe i can dirty
	// shard j — every applier's version advances on every batch and Flush
	// republishes all shards.
	ak.plane = newAsyncPlane[KeyedTuple[K]](sharded.Shards(), policy, ak.applyBatch, ak.publishShard, true)
	ak.snaps = make([]*core.Profile, sharded.Shards())
	ak.plane.publishMu.Lock()
	for i := 0; i < sharded.Shards(); i++ {
		ak.publishShard(i)
	}
	ak.plane.publishMu.Unlock()
	ak.pool = make(chan *AsyncKeyedProducer[K], 4*runtime.GOMAXPROCS(0))
	ak.plane.start()
	return ak, nil
}

// BuildKeyedAsync assembles a concurrent keyed profile with BuildKeyed and
// wraps it with the async ingest plane in one step:
//
//	ak, err := sprofile.BuildKeyedAsync[string](m, sprofile.AsyncPolicy{},
//	        sprofile.WithSharding(8), sprofile.WithWAL("events.wal"))
func BuildKeyedAsync[K comparable](m int, policy AsyncPolicy, opts ...BuildOption) (*AsyncKeyed[K], error) {
	k, err := BuildKeyed[K](m, opts...)
	if err != nil {
		return nil, err
	}
	ak, err := NewAsyncKeyed(k, policy)
	if err != nil {
		k.Close()
		return nil, err
	}
	return ak, nil
}

// applyBatch ingests one drained, single-stripe batch through the keyed
// batch path (coalescing, one stripe-lock acquisition, one WAL record, one
// group-commit fsync).
func (ak *AsyncKeyed[K]) applyBatch(_ int, items []KeyedTuple[K]) error {
	_, err := ak.k.ApplyBatch(items)
	return err
}

// publishShard installs a new epoch view containing shard's fresh snapshot;
// called under plane.publishMu.
func (ak *AsyncKeyed[K]) publishShard(shard int) {
	ak.snaps[shard] = ak.sharded.cloneShard(shard)
	var v queryableProfiler = newShardedView(ak.sharded, ak.snaps)
	ak.view.Store(&v)
}

// curView returns the current epoch's dense read view.
func (ak *AsyncKeyed[K]) curView() queryableProfiler {
	return *ak.view.Load()
}

// checkEvent validates what can be validated at enqueue time, keeping
// argument errors synchronous like the direct keyed paths.
func (ak *AsyncKeyed[K]) checkEvent(key K, action Action) error {
	if !action.Valid() {
		return errInvalidAction(action)
	}
	if ak.k.store != nil {
		// BuildKeyed guarantees K = string when a WAL is attached.
		if err := checkJournalableKey(any(key).(string)); err != nil {
			return err
		}
	}
	return nil
}

// Producer returns a dedicated keyed producer handle: one lock-free mailbox
// per stripe, single-goroutine, ordered per producer. Close it when the
// producer retires.
func (ak *AsyncKeyed[K]) Producer() (*AsyncKeyedProducer[K], error) {
	p, err := ak.plane.newProducer()
	if err != nil {
		return nil, err
	}
	return &AsyncKeyedProducer[K]{ak: ak, p: p}, nil
}

// withProducer rents a pooled handle for one call.
func (ak *AsyncKeyed[K]) withProducer(f func(*AsyncKeyedProducer[K]) error) error {
	var p *AsyncKeyedProducer[K]
	select {
	case p = <-ak.pool:
	default:
		var err error
		p, err = ak.Producer()
		if err != nil {
			return err
		}
	}
	err := f(p)
	select {
	case ak.pool <- p:
	default:
		p.Close()
	}
	return err
}

// Add enqueues an "add" event for key; id assignment and recycling happen
// on the applier. ErrKeyedFull (no recyclable id) surfaces on the next
// Flush.
func (ak *AsyncKeyed[K]) Add(key K) error {
	return ak.withProducer(func(p *AsyncKeyedProducer[K]) error { return p.Add(key) })
}

// Remove enqueues a "remove" event for key; an unknown key surfaces as
// ErrUnknownKey on the next Flush.
func (ak *AsyncKeyed[K]) Remove(key K) error {
	return ak.withProducer(func(p *AsyncKeyedProducer[K]) error { return p.Remove(key) })
}

// Apply enqueues one (key, action) event.
func (ak *AsyncKeyed[K]) Apply(key K, action Action) error {
	return ak.withProducer(func(p *AsyncKeyedProducer[K]) error { return p.Apply(key, action) })
}

// ApplyBatch enqueues a batch of keyed events, stopping at the first
// invalid one; it returns how many were enqueued.
func (ak *AsyncKeyed[K]) ApplyBatch(events []KeyedTuple[K]) (int, error) {
	var n int
	err := ak.withProducer(func(p *AsyncKeyedProducer[K]) error {
		var err error
		n, err = p.ApplyBatch(events)
		return err
	})
	return n, err
}

// Track assigns key a dense id without counting anything. It acts on the
// live mapper immediately (Tracked reflects it at once); the id's zero
// frequency reaches epoch snapshots on the next publish.
func (ak *AsyncKeyed[K]) Track(key K) error { return ak.k.Track(key) }

// Flush drains every producer mailbox, waits until every drained event is
// applied, republishes all shard snapshots, and returns the first deferred
// apply error since the last Flush — the read-your-write escape hatch.
func (ak *AsyncKeyed[K]) Flush() error { return ak.plane.flush() }

// Close drains and stops the ingest plane, then closes the wrapped keyed
// profile (flushing its WAL and stopping its checkpointer).
func (ak *AsyncKeyed[K]) Close() error {
	err := ak.plane.close()
	if cerr := ak.k.Close(); err == nil {
		err = cerr
	}
	return err
}

// Sync flushes the wrapped profile's write-ahead log. It does NOT drain the
// mailboxes; call Flush first for an inclusive cut.
func (ak *AsyncKeyed[K]) Sync() error { return ak.k.Sync() }

// Checkpoint forwards to the wrapped profile's Checkpoint: the appliers
// mutate state under the stripe locks Checkpoint quiesces, so the snapshot
// is an exact cut of the applied stream. Call Flush first when the
// checkpoint must also cover everything enqueued so far.
func (ak *AsyncKeyed[K]) Checkpoint() error { return ak.k.Checkpoint() }

// Inner returns the wrapped keyed profile. Updating it directly bypasses
// the mailboxes and must be avoided.
func (ak *AsyncKeyed[K]) Inner() *KeyedConcurrent[K] { return ak.k }

// Stats returns the plane's observability snapshot.
func (ak *AsyncKeyed[K]) Stats() AsyncStats { return ak.plane.stats() }

// Epoch returns the current publish epoch (total snapshot installs).
func (ak *AsyncKeyed[K]) Epoch() uint64 { return ak.plane.epoch.Load() }

// The read surface: statistics answer from the current epoch snapshot,
// translated to keys through the live mapper.

// Count returns the frequency of key in the current epoch (zero for
// unknown keys).
func (ak *AsyncKeyed[K]) Count(key K) (int64, error) { return ak.countIn(ak.curView(), key) }

// countIn reads key's frequency from one epoch view, resolving the key
// through the live mapper; an unknown key counts as zero.
func (ak *AsyncKeyed[K]) countIn(view Profiler, key K) (int64, error) {
	id, err := ak.k.ids.DenseID(key)
	if err != nil {
		return 0, nil
	}
	return view.Count(id)
}

// Cap returns the maximum number of concurrently tracked keys.
func (ak *AsyncKeyed[K]) Cap() int { return ak.k.Cap() }

// Tracked returns the number of keys currently holding a dense id (live
// mapper state, not the epoch snapshot).
func (ak *AsyncKeyed[K]) Tracked() int { return ak.k.Tracked() }

// Total returns the sum of all frequencies in the current epoch.
func (ak *AsyncKeyed[K]) Total() int64 { return ak.curView().Total() }

// KeyOf resolves a dense id back to its key, when one is assigned.
func (ak *AsyncKeyed[K]) KeyOf(id int) (K, bool) { return ak.k.ids.Key(id) }

// QueryKeys answers a composite query atomically against ONE epoch
// snapshot; per-key counts resolve ids through the live mapper and read
// the same snapshot, so all panels are one cut. The resolver is the live
// mapper: snapshots capture frequencies, the id↔key assignment stays
// authoritative in the mapper.
func (ak *AsyncKeyed[K]) QueryKeys(kq KeyedQuery[K]) (KeyedQueryResult[K], error) {
	q := keyedQueries[K]{profile: ak.curView(), resolver: ak.k.ids}
	return q.answer(kq, func(key K) (int64, error) { return ak.countIn(q.profile, key) })
}

// Profile exposes the current epoch's dense snapshot as a read-only view.
func (ak *AsyncKeyed[K]) Profile() Profiler { return NewReadOnly(ak.curView()) }

// AsyncKeyedProducer is a keyed producer handle: lock-free enqueues routed
// by the key's mapper stripe, strictly ordered per handle. Handles are
// single-goroutine.
type AsyncKeyedProducer[K comparable] struct {
	ak *AsyncKeyed[K]
	p  *asyncProducer[KeyedTuple[K]]
}

// Add enqueues an "add" event for key.
func (p *AsyncKeyedProducer[K]) Add(key K) error {
	return p.Apply(key, ActionAdd)
}

// Remove enqueues a "remove" event for key.
func (p *AsyncKeyedProducer[K]) Remove(key K) error {
	return p.Apply(key, ActionRemove)
}

// Apply enqueues one (key, action) event.
func (p *AsyncKeyedProducer[K]) Apply(key K, action Action) error {
	if err := p.ak.checkEvent(key, action); err != nil {
		return err
	}
	return p.p.push(p.ak.k.ids.StripeOf(key), KeyedTuple[K]{Key: key, Action: action})
}

// ApplyBatch enqueues events in order, stopping at the first invalid one
// (or the first backpressure rejection); it returns how many were
// enqueued.
func (p *AsyncKeyedProducer[K]) ApplyBatch(events []KeyedTuple[K]) (int, error) {
	for i, e := range events {
		if err := p.Apply(e.Key, e.Action); err != nil {
			return i, err
		}
	}
	return len(events), nil
}

// Close retires the handle; its mailboxes are drained, then reclaimed.
func (p *AsyncKeyedProducer[K]) Close() error {
	p.p.close()
	return nil
}
