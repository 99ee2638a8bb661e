package sprofile

import (
	"errors"
	"fmt"
	"sync"

	"sprofile/internal/checkpoint"
	"sprofile/internal/idmap"
	"sprofile/internal/wal"
)

// ErrWALAppend reports an update that was applied to the in-memory profile
// but could not be journaled to the write-ahead log. The profile and the log
// have diverged; the caller decides whether to surface the failure or to
// retry the sync.
var ErrWALAppend = errors.New("sprofile: event applied but not journaled")

// KeyedConcurrent is the concurrent counterpart of Keyed: a key-addressed
// profile safe for many goroutines ingesting and querying at once, with no
// global lock anywhere on the update path.
//
// Concurrency model — three aligned layers:
//
//   - the id mapper is striped: keys hash onto stripes, each guarded by its
//     own mutex, and each stripe prefers dense ids from its own contiguous
//     range (borrowing from other ranges only when its own is exhausted);
//   - the dense profile is sharded with the same geometry, so the id a
//     stripe assigns lands in the matching shard — one Add takes one stripe
//     lock plus one shard lock, and updates on different stripes never
//     contend;
//   - frequency bookkeeping for recycling (which keys are idle) is kept per
//     stripe and mutated only while that stripe's lock is held, which is what
//     makes eviction sound under concurrency: a key's frequency cannot move
//     while its stripe lock serialises both the eviction check and every
//     update that could change it.
//
// Recycling semantics under concurrency (the part that differs from Keyed):
// when every dense id is in use, Add evicts an idle key — frequency zero —
// from the new key's own stripe. If that stripe has no idle key, Add returns
// ErrKeyedFull even if another stripe has one; eviction never crosses a
// stripe boundary, because that would need two stripe locks and reintroduce
// cross-stripe contention (and deadlock risk) on the hot path. With
// hash-distributed keys the stripes stay balanced and the difference from
// global eviction is marginal.
//
// Every statistic getter is a single-statistic QueryKeys call, and QueryKeys
// picks the narrowest cut that still answers consistently (see there): a
// global query that names keys (Mode, TopK, Median, ...) quiesces the mapper
// stripes, so a translated key is never one recycled mid-query;
// Distribution and Summarize name no key and read the dense profile's own
// cut; one key's Count takes only that key's stripe lock.
//
// Construct with BuildKeyed. As with Keyed, mutating the underlying Profile()
// directly desynchronises the bookkeeping and must be avoided.
type KeyedConcurrent[K comparable] struct {
	keyedQueries[K]
	keyedStatViews[K] // getters as one-field QueryKeys
	ids               *idmap.Striped[K]
	recycle           bool
	// deltas is the dense profile's DeltaUpdater capability (always present
	// for the Sharded/Concurrent profiles BuildKeyed constructs); the batch
	// paths use it to move a key by its net delta in one block walk.
	deltas DeltaUpdater
	// batches recycles the coalescing scratch of ApplyBatch.
	batches sync.Pool
	// freqs mirrors each id's frequency; entry i is guarded by the stripe
	// lock of the key currently holding id i (free ids hold zero and are
	// handed over through the mapper's alloc locks).
	freqs []int64
	// zeros tracks the idle (frequency-zero) keys of each stripe, the
	// eviction candidates; zeros[i] is guarded by stripe i's lock.
	zeros []zeroSet[K]

	// store is the checkpointed write-ahead log (nil without WithWAL). The
	// store's internal append mutex serialises journal writes; each append
	// happens while the event's stripe lock is held, which keeps every key's
	// add/remove order in the log identical to its apply order (the property
	// strict replay depends on). Events of different keys interleave in
	// whatever order their stripes reach the log, which replay is
	// insensitive to. Fsyncs run outside all locks with group commit.
	store    *checkpoint.Store
	ckpt     *checkpoint.Checkpointer
	replayed int
	stats    RecoveryStats
}

// zeroSet is an O(1) insert/delete/pop set of idle keys.
type zeroSet[K comparable] struct {
	keys []K
	pos  map[K]int
}

func (z *zeroSet[K]) add(key K) {
	if z.pos == nil {
		z.pos = make(map[K]int)
	}
	if _, ok := z.pos[key]; ok {
		return
	}
	z.pos[key] = len(z.keys)
	z.keys = append(z.keys, key)
}

func (z *zeroSet[K]) remove(key K) {
	i, ok := z.pos[key]
	if !ok {
		return
	}
	last := len(z.keys) - 1
	z.keys[i] = z.keys[last]
	z.pos[z.keys[i]] = i
	z.keys = z.keys[:last]
	delete(z.pos, key)
}

func (z *zeroSet[K]) pop() (K, bool) {
	var zero K
	if len(z.keys) == 0 {
		return zero, false
	}
	key := z.keys[len(z.keys)-1]
	z.keys = z.keys[:len(z.keys)-1]
	delete(z.pos, key)
	return key, true
}

// BuildKeyed assembles a concurrent key-addressed profile able to track up
// to m keys at once, from the same capability options Build accepts:
//
//	k, err := sprofile.BuildKeyed[string](m)                          // sharded per CPU
//	k, err := sprofile.BuildKeyed[string](m, sprofile.WithSharding(16))
//	k, err := sprofile.BuildKeyed[string](m, sprofile.WithSharding(16), sprofile.WithWAL("events.wal"))
//	k, err := sprofile.BuildKeyed[int64](m, sprofile.WithoutKeyRecycling())
//
// The result is always safe for concurrent use. WithSharding sets both the
// profile shard count and the mapper stripe count (they are kept aligned);
// without it the profile is sharded one shard per CPU. Synchronized selects
// a single-mutex dense profile instead (the mapper stays striped). Windowed
// and TimeWindowed are rejected — window adapters are single-goroutine.
//
// Id recycling is on by default, which forces WithStrictNonNegative on the
// dense profile exactly like NewKeyed; WithoutKeyRecycling turns it off and
// permits negative frequencies. WithWAL makes ingestion durable and is
// supported for K = string (the log stores string keys); Build-style replay
// happens before BuildKeyed returns, and Sync/Close flush the log.
func BuildKeyed[K comparable](m int, opts ...BuildOption) (*KeyedConcurrent[K], error) {
	var cfg buildConfig
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.windowSet || cfg.spanSet {
		return nil, fmt.Errorf("%w: window adapters are single-goroutine; BuildKeyed cannot maintain them concurrently", ErrBuildConfig)
	}
	if cfg.asyncSet {
		return nil, fmt.Errorf("%w: BuildKeyed returns the concrete *KeyedConcurrent; use BuildKeyedAsync for the async ingest plane", ErrBuildConfig)
	}
	if cfg.shardsSet && cfg.shards <= 0 {
		return nil, fmt.Errorf("%w: shard count must be positive, got %d", ErrBuildConfig, cfg.shards)
	}
	if cfg.ckptSet && cfg.walPath == "" {
		return nil, fmt.Errorf("%w: WithCheckpoints requires WithWAL", ErrBuildConfig)
	}
	if cfg.walPath != "" {
		var zero K
		if _, ok := any(zero).(string); !ok {
			return nil, fmt.Errorf("%w: WithWAL requires string keys (the log stores keys as strings), got %T", ErrBuildConfig, zero)
		}
	}
	recycle := !cfg.noKeyRecycle
	profileOpts := cfg.profileOpts
	if recycle {
		// Recycled ids must start from a clean zero frequency, so the dense
		// profile has to reject negative frequencies.
		profileOpts = append(profileOpts, WithStrictNonNegative())
	}

	shards := cfg.shards
	if !cfg.shardsSet {
		shards = defaultShards()
	}
	var (
		inner   Profiler
		stripes int
		err     error
	)
	if cfg.synchronized && !cfg.shardsSet {
		inner, err = NewConcurrent(m, profileOpts...)
		stripes = defaultShards()
	} else {
		var sharded *Sharded
		sharded, err = NewSharded(m, shards, profileOpts...)
		if err == nil {
			// Align mapper stripes with the shards actually materialised
			// (NewSharded clamps the count for small m).
			inner, stripes = sharded, sharded.Shards()
		}
	}
	if err != nil {
		return nil, err
	}
	ids, err := idmap.NewStriped[K](m, stripes)
	if err != nil {
		return nil, err
	}
	kc := &KeyedConcurrent[K]{
		keyedQueries: keyedQueries[K]{profile: inner, resolver: ids},
		ids:          ids,
		recycle:      recycle,
		zeros:        make([]zeroSet[K], ids.NumStripes()),
	}
	kc.keyedStatViews = keyedStatViews[K]{kc}
	kc.deltas, _ = inner.(DeltaUpdater)
	if recycle {
		kc.freqs = make([]int64, m)
	}
	if cfg.walPath != "" {
		store, err := checkpoint.Open(cfg.walPath, checkpoint.Options{SyncEvery: cfg.walSyncEvery})
		if err != nil {
			return nil, fmt.Errorf("sprofile: opening WAL %s: %w", cfg.walPath, err)
		}
		if st := store.TakeState(); st != nil {
			if err := kc.restore(st); err != nil {
				return nil, fmt.Errorf("sprofile: restoring snapshot from %s: %w", cfg.walPath, err)
			}
		}
		replayed, err := store.ReplayTail(kc.applyWALRecord)
		if err != nil {
			return nil, fmt.Errorf("sprofile: replaying WAL %s: %w", cfg.walPath, err)
		}
		kc.replayed = replayed
		kc.stats = recoveryStats(store.Stats())
		kc.store = store
		if cfg.ckptSet && cfg.ckpt.Enabled() {
			kc.ckpt = checkpoint.Start(checkpoint.Policy{Every: cfg.ckpt.Every, EveryBytes: cfg.ckpt.EveryBytes},
				kc.Checkpoint, store.TailBytes)
		}
	}
	return kc, nil
}

// applyWALRecord replays one durable record into the profile. Stripe
// assignment is seeded per process, so the per-stripe eviction decisions of
// the writing run cannot be reproduced here. Replay is single-goroutine (the
// recovery loop or a follower's polling goroutine), so it may fall back to
// evicting an idle key from any stripe: the log guarantees the live
// (frequency > 0) key set never exceeded capacity, hence an idle victim
// always exists when an Add finds the mapper full. The profile's store must
// be nil (recovery, or a follower without an append head), so the apply
// paths rebuild state without re-journaling the records being replayed.
func (k *KeyedConcurrent[K]) applyWALRecord(rec wal.Record) error {
	key := any(rec.Key).(K)
	apply := func() error {
		if rec.Batch {
			return k.ApplyDelta(key, rec.Adds, rec.Removes)
		}
		return k.Apply(key, rec.Action)
	}
	err := apply()
	if errors.Is(err, idmap.ErrFull) && k.evictIdleAny() {
		err = apply()
	}
	return err
}

// restore reinstates a checkpoint snapshot: every snapshotted key re-acquires
// a dense id (ids are reassigned — stripe hashing is seeded per process, so
// the original ids are meaningless here), the dense profile is loaded with
// the frequencies in one O(m log m) step, and the recycling bookkeeping is
// rebuilt. Runs before any concurrent access exists.
func (k *KeyedConcurrent[K]) restore(st *checkpoint.State) error {
	if !st.Keyed {
		return fmt.Errorf("this WAL holds a dense-id snapshot; open it with Build, not BuildKeyed: %w", ErrBadSnapshot)
	}
	m := k.profile.Cap()
	if len(st.Keys) > m {
		return fmt.Errorf("snapshot tracks %d keys but the profile has capacity %d: %w", len(st.Keys), m, ErrBadSnapshot)
	}
	loader, ok := k.profile.(FrequencyLoader)
	if !ok {
		return fmt.Errorf("%T cannot restore a snapshot (no FrequencyLoader capability): %w", k.profile, errors.ErrUnsupported)
	}
	k.ids.Reserve(len(st.Keys))
	freqs := make([]int64, m)
	for i, sk := range st.Keys {
		key := any(sk).(K) // BuildKeyed only opens a WAL for K = string
		id, _, err := k.ids.Acquire(key)
		if err != nil {
			return err
		}
		f := st.Freqs[i]
		freqs[id] = f
		if k.recycle {
			k.freqs[id] = f
			if f == 0 {
				k.zeros[k.ids.StripeOf(key)].add(key)
			}
		}
	}
	return loader.LoadFrequencies(freqs, st.Adds, st.Removes)
}

// MustBuildKeyed is BuildKeyed for callers with a known-good configuration;
// it panics on error.
func MustBuildKeyed[K comparable](m int, opts ...BuildOption) *KeyedConcurrent[K] {
	k, err := BuildKeyed[K](m, opts...)
	if err != nil {
		panic(err)
	}
	return k
}

// Tracked returns the number of keys currently holding a dense id.
func (k *KeyedConcurrent[K]) Tracked() int { return k.ids.Len() }

// Replayed returns the number of WAL tail records replayed when the profile
// was built (zero without WithWAL) — with checkpointing, only the records
// after the last snapshot, not the full ingest history.
func (k *KeyedConcurrent[K]) Replayed() int { return k.replayed }

// Recovery returns the full recovery breakdown: what the snapshot restored
// and what the tail replay added.
func (k *KeyedConcurrent[K]) Recovery() RecoveryStats { return k.stats }

// Sync flushes buffered write-ahead-log records to stable storage. Without
// WithWAL it is a no-op.
func (k *KeyedConcurrent[K]) Sync() error {
	if k.store == nil {
		return nil
	}
	return k.store.Sync()
}

// WALError returns the sticky I/O error poisoning the write-ahead log — nil
// while the log is healthy, or without WithWAL. Once set, every update fails
// fast with ErrWALAppend until RollWAL recovers the log; see wal.Dir.SyncError
// for why a failed fsync cannot simply be retried.
func (k *KeyedConcurrent[K]) WALError() error {
	if k.store == nil {
		return nil
	}
	return k.store.SyncError()
}

// RollWAL recovers a poisoned write-ahead log by rolling the append head onto
// a fresh segment, restoring update service once the disk accepts writes
// again. Records that were applied in memory but never acknowledged as
// durable (their writers got ErrWALAppend) are dropped from the log. It is a
// no-op on a healthy log or without WithWAL.
func (k *KeyedConcurrent[K]) RollWAL() error {
	if k.store == nil {
		return nil
	}
	return k.store.Roll()
}

// Close stops background checkpointing and closes the write-ahead log, if
// one is configured. The profile stays queryable, but further updates will
// fail to journal.
func (k *KeyedConcurrent[K]) Close() error {
	if k.store == nil {
		return nil
	}
	if k.ckpt != nil {
		k.ckpt.Stop()
	}
	return k.store.Close()
}

// CheckpointError returns the outcome of the most recent background
// checkpoint (always nil without WithCheckpoints, or while none has run).
func (k *KeyedConcurrent[K]) CheckpointError() error {
	if k.ckpt == nil {
		return nil
	}
	return k.ckpt.LastError()
}

// Checkpoint writes an atomic snapshot — key table, frequencies and event
// counters — into the WAL directory and deletes the log segments it covers,
// so the next restart loads the snapshot and replays only what follows it.
//
// The capture quiesces writers by holding every mapper stripe lock (each
// update path takes one first), which yields an exact cut: the snapshot
// covers precisely the events journaled before the rotation it performs.
// Readers are never blocked — queries synchronise only on the profile's
// shard locks, which the capture holds just long enough to clone the dense
// state. Serialisation and fsync of the snapshot happen entirely outside the
// update path, and one checkpoint runs at a time.
func (k *KeyedConcurrent[K]) Checkpoint() error {
	if k.store == nil {
		return errNoWAL
	}
	snapper, ok := k.profile.(Snapshotter)
	if !ok {
		return fmt.Errorf("sprofile: %T cannot be checkpointed (no Snapshotter capability): %w", k.profile, errors.ErrUnsupported)
	}
	return k.store.Checkpoint(func() (st *checkpoint.State, sealed uint64, err error) {
		k.ids.Quiesce(func() {
			sealed, err = k.store.Rotate()
			if err != nil {
				return
			}
			var snap *Profile
			snap, err = snapper.Snapshot()
			if err != nil {
				return
			}
			adds, removes := snap.Events()
			n := k.ids.Len()
			keys := make([]string, 0, n)
			freqs := make([]int64, 0, n)
			k.ids.RangeLocked(func(key K, id int) bool {
				f, cerr := snap.Count(id)
				if cerr != nil {
					err = cerr
					return false
				}
				keys = append(keys, any(key).(string))
				freqs = append(freqs, f)
				return true
			})
			if err != nil {
				return
			}
			st = &checkpoint.State{
				Keyed:    true,
				Capacity: k.profile.Cap(),
				Adds:     adds,
				Removes:  removes,
				Keys:     keys,
				Freqs:    freqs,
			}
		})
		return st, sealed, err
	})
}

// checkJournalableKey rejects keys the write-ahead log cannot record.
// The batch paths validate before applying anything: a batch record is
// appended (and validated) wholesale per stripe, so one bad key would
// otherwise void journaling for every entry sharing its record.
func checkJournalableKey(key string) error {
	if key == "" {
		return fmt.Errorf("%w: an empty key cannot be journaled", ErrOutOfRange)
	}
	if len(key) > wal.MaxKeyLen {
		return fmt.Errorf("sprofile: key of %d bytes exceeds the write-ahead log's %d-byte record limit: %w", len(key), wal.MaxKeyLen, ErrOutOfRange)
	}
	return nil
}

// journal appends one applied event to the WAL; key is string by the
// BuildKeyed construction check. syncDue asks the caller to run Sync once
// the stripe lock is released.
func (k *KeyedConcurrent[K]) journal(key K, a Action) (syncDue bool, err error) {
	syncDue, err = k.store.Append(wal.Record{Key: any(key).(string), Action: a})
	if err != nil {
		return false, fmt.Errorf("%w: %v", ErrWALAppend, err)
	}
	return syncDue, nil
}

// evictFn returns the per-stripe eviction callback for the mapper: pop one
// idle key of the acquiring key's stripe. It runs under the stripe lock.
func (k *KeyedConcurrent[K]) evictFn() func(stripe int) (K, bool) {
	if !k.recycle {
		return nil
	}
	return func(stripe int) (K, bool) { return k.zeros[stripe].pop() }
}

// evictIdleAny releases one idle key from any stripe, ignoring the
// per-stripe eviction boundary. Only WAL replay uses it, where a single
// goroutine owns the whole profile; under concurrency the unsynchronised
// zero-set scan would race with the stripes' lock discipline.
func (k *KeyedConcurrent[K]) evictIdleAny() bool {
	if !k.recycle {
		return false
	}
	for i := range k.zeros {
		if victim, ok := k.zeros[i].pop(); ok {
			if _, err := k.ids.Release(victim); err == nil {
				return true
			}
		}
	}
	return false
}

// Add increments the frequency of key, assigning it a dense id if needed.
// When the profile is full, Add recycles the id of an idle key in the same
// stripe; if the stripe has none it returns ErrKeyedFull.
func (k *KeyedConcurrent[K]) Add(key K) error {
	var journalErr error
	var syncDue bool
	_, _, err := k.ids.AcquireFunc(key, k.evictFn(), func(id int, isNew bool) error {
		if err := k.profile.Add(id); err != nil {
			return err
		}
		if k.recycle {
			k.freqs[id]++
			if k.freqs[id] == 1 && !isNew {
				k.zeros[k.ids.StripeOf(key)].remove(key)
			}
		}
		if k.store != nil {
			// Journal failures must not roll back the applied update (the
			// mapping and profile would then disagree), so the error is
			// carried out-of-band and wrapped in ErrWALAppend.
			syncDue, journalErr = k.journal(key, ActionAdd)
		}
		return nil
	})
	if err != nil {
		return err
	}
	mIngestEventsSingle.Inc()
	return k.finishJournal(syncDue, journalErr)
}

// finishJournal runs a WithWALSyncEvery-due sync outside every profile lock
// and folds its failure into the journal error contract.
func (k *KeyedConcurrent[K]) finishJournal(syncDue bool, journalErr error) error {
	if journalErr != nil || !syncDue {
		return journalErr
	}
	if err := k.store.Sync(); err != nil {
		return fmt.Errorf("%w: sync: %v", ErrWALAppend, err)
	}
	return nil
}

// Remove decrements the frequency of key. Removing an unknown key is an
// error: with recycling enabled frequencies cannot go negative, and without
// recycling the key must still be added first to receive an id.
func (k *KeyedConcurrent[K]) Remove(key K) error {
	var journalErr error
	var syncDue bool
	_, err := k.ids.DenseIDFunc(key, func(id int) error {
		if err := k.profile.Remove(id); err != nil {
			return err
		}
		if k.recycle {
			k.freqs[id]--
			if k.freqs[id] == 0 {
				k.zeros[k.ids.StripeOf(key)].add(key)
			}
		}
		if k.store != nil {
			syncDue, journalErr = k.journal(key, ActionRemove)
		}
		return nil
	})
	if err != nil {
		return err
	}
	mIngestEventsSingle.Inc()
	return k.finishJournal(syncDue, journalErr)
}

// Apply applies one (key, action) event.
func (k *KeyedConcurrent[K]) Apply(key K, action Action) error {
	switch action {
	case ActionAdd:
		return k.Add(key)
	case ActionRemove:
		return k.Remove(key)
	default:
		return errInvalidAction(action)
	}
}

// QueryKeys answers a keyed composite query from ONE consistent cut, the
// narrowest one that covers the selection:
//
//   - a selection of only Distribution and Summary names no key and is
//     answered from the dense profile's own cut, without touching a stripe;
//   - a selection of exactly one Count key and nothing else holds only that
//     key's stripe lock;
//   - every other selection quiesces: every mapper stripe lock is held for
//     the duration (writers wait, readers of other structures proceed), so
//     the dense statistics, the per-key counts and the id→key translation
//     all describe the same instant — a translated key can never have been
//     recycled between a statistic and its resolution.
//
// The single-statistic getters are one-field QueryKeys calls and take the
// same cuts; Count, Cap and Total are native and never quiesce either.
//
// The dense evaluation itself runs through the inner profile's own Querier
// (one lock acquisition on Concurrent, one merged cut on Sharded); with
// writers quiesced those locks are uncontended.
func (k *KeyedConcurrent[K]) QueryKeys(q KeyedQuery[K]) (KeyedQueryResult[K], error) {
	if !q.namesKeys() {
		switch {
		case len(q.Count) == 0:
			return k.answer(q, nil)
		case len(q.Count) == 1 && !q.Distribution && !q.Summary:
			return k.countKey(q.Count[0])
		}
	}
	return k.queryQuiesced(q)
}

// countKey answers a query for one key's count from that key's stripe.
func (k *KeyedConcurrent[K]) countKey(key K) (KeyedQueryResult[K], error) {
	f, err := k.Count(key)
	if err != nil {
		return KeyedQueryResult[K]{}, err
	}
	return KeyedQueryResult[K]{Counts: []KeyedEntry[K]{{Key: key, Frequency: f}}}, nil
}

// queryQuiesced answers q with every mapper stripe lock held.
func (k *KeyedConcurrent[K]) queryQuiesced(q KeyedQuery[K]) (KeyedQueryResult[K], error) {
	var out KeyedQueryResult[K]
	var err error
	k.ids.Quiesce(func() {
		out, err = k.answer(q, func(key K) (int64, error) {
			// LookupLocked, not DenseID: the stripe locks are already held.
			if id, ok := k.ids.LookupLocked(key); ok {
				return k.profile.Count(id)
			}
			return 0, nil
		})
	})
	return out, err
}

// KeyedTuple is one keyed log event — the key-addressed counterpart of
// Tuple, and the element type of ApplyBatch.
type KeyedTuple[K comparable] struct {
	Key    K
	Action Action
}

// keyedDelta is one coalesced per-key delta inside an ApplyBatch call.
// Entries whose keys collide on the 64-bit coalescing hash are chained
// through next. firstIsAdd records whether the key's first event in the
// batch was an add — the per-event path acquires an unknown key exactly
// then, so the batch path preserves that decision.
type keyedDelta[K comparable] struct {
	key           K
	adds, removes uint64
	stripe        int32
	next          int32
	firstIsAdd    bool
}

// keyedBatch is the reusable scratch of ApplyBatch: the coalescing index,
// the per-stripe counting sort and the write-ahead-log record buffer. It is
// pooled so steady-state batch ingestion allocates nothing beyond the keys
// themselves. The index is keyed by the mapper's 64-bit key hash — computed
// once per event and reused for stripe selection — because an integer-keyed
// map is markedly cheaper than re-hashing arbitrary K inside a generic map.
type keyedBatch[K comparable] struct {
	index   map[uint64]int32
	entries []keyedDelta[K]
	counts  []int32
	offsets []int32
	order   []int32
	wrecs   []wal.BatchEntry
}

// growInt32 returns s resized to n elements, reallocating only on growth.
func growInt32(s []int32, n int) []int32 {
	if cap(s) < n {
		return make([]int32, n)
	}
	return s[:n]
}

// ApplyBatch ingests a whole batch of keyed events through the delta fast
// path:
//
//  1. the batch is coalesced into one net delta per distinct key (so a hot
//     key repeated many times costs one update, not many);
//  2. the deltas are grouped by mapper stripe and each stripe's group is
//     resolved under a single stripe-lock acquisition, amortising the
//     per-event striping overhead of the id mapping;
//  3. each key moves by its net delta in one block-boundary walk of the
//     dense profile;
//  4. with a write-ahead log, each stripe's group is journaled as one batch
//     record (appended while the stripe lock is held, preserving per-key
//     log order) and the whole batch is made durable by ONE group-commit
//     fsync.
//
// It returns the number of events whose effect is in the profile. Semantics
// match applying the events one by one except in two documented ways shared
// with the rest of the delta path: strict non-negativity applies to each
// key's net delta, and on an error the other keys of the batch may already
// be applied (an invalid action anywhere, however, rejects the whole batch
// before anything is applied). A journaling failure is reported as
// ErrWALAppend after the batch has been applied in memory.
func (k *KeyedConcurrent[K]) ApplyBatch(events []KeyedTuple[K]) (int, error) {
	if len(events) == 0 {
		return 0, nil
	}
	if k.deltas == nil {
		// The dense profile cannot apply deltas (impossible for BuildKeyed's
		// own constructions); fall back to the per-event path.
		for i, e := range events {
			if err := k.Apply(e.Key, e.Action); err != nil {
				return i, err
			}
		}
		return len(events), nil
	}

	b, _ := k.batches.Get().(*keyedBatch[K])
	if b == nil {
		b = &keyedBatch[K]{index: make(map[uint64]int32)}
	}
	defer func() {
		clear(b.index)
		// Zero the full backing arrays before truncating so pooled scratch
		// does not pin the batch's key strings past the call (wrecs is
		// truncated per stripe, so its live prefix alone is not enough).
		clear(b.entries)
		b.entries = b.entries[:0]
		clear(b.wrecs[:cap(b.wrecs)])
		b.wrecs = b.wrecs[:0]
		k.batches.Put(b)
	}()

	// Coalesce, deduplicating keys through their stripe hash (hash
	// collisions chain and simply yield one entry per distinct key).
	// Validation happens here, before anything is applied, so an invalid
	// action — or, with a WAL, a key the log could not journal — rejects the
	// batch whole instead of leaving applied-but-unjournaled state behind.
	ns := k.ids.NumStripes()
	for _, e := range events {
		if !e.Action.Valid() {
			return 0, errInvalidAction(e.Action)
		}
		if k.store != nil {
			if err := checkJournalableKey(any(e.Key).(string)); err != nil {
				return 0, err
			}
		}
		h := k.ids.Hash(e.Key)
		first := e.Action == ActionAdd
		j, ok := b.index[h]
		if ok {
			for b.entries[j].key != e.Key {
				if b.entries[j].next < 0 {
					nj := int32(len(b.entries))
					b.entries = append(b.entries, keyedDelta[K]{key: e.Key, stripe: int32(h % uint64(ns)), next: -1, firstIsAdd: first})
					b.entries[j].next = nj
					j = nj
					break
				}
				j = b.entries[j].next
			}
		} else {
			j = int32(len(b.entries))
			b.index[h] = j
			b.entries = append(b.entries, keyedDelta[K]{key: e.Key, stripe: int32(h % uint64(ns)), next: -1, firstIsAdd: first})
		}
		if e.Action == ActionAdd {
			b.entries[j].adds++
		} else {
			b.entries[j].removes++
		}
	}

	mIngestEventsBatch.Add(uint64(len(events)))
	mIngestBatchEvents.Observe(float64(len(events)))
	mIngestBatchKeys.Add(uint64(len(b.entries)))

	// Group by stripe with a counting sort over the reusable buffers.
	b.counts = growInt32(b.counts, ns)
	for i := range b.counts {
		b.counts[i] = 0
	}
	for i := range b.entries {
		b.counts[b.entries[i].stripe]++
	}
	b.offsets = growInt32(b.offsets, ns)
	sum := int32(0)
	for i := 0; i < ns; i++ {
		b.offsets[i] = sum
		sum += b.counts[i]
	}
	b.order = growInt32(b.order, len(b.entries))
	for i := range b.entries {
		si := b.entries[i].stripe
		b.order[b.offsets[si]] = int32(i)
		b.offsets[si]++
	}

	// Apply stripe by stripe: one stripe-lock acquisition, one profile
	// delta per distinct key, one log record per stripe group.
	applied := 0
	var journalErr error
	var entryErr error
	for si := 0; si < ns && entryErr == nil && journalErr == nil; si++ {
		cnt := int(b.counts[si])
		if cnt == 0 {
			continue
		}
		idxs := b.order[int(b.offsets[si])-cnt : b.offsets[si]]
		_ = k.ids.BatchFunc(si, func(t idmap.StripeTxn[K]) error {
			b.wrecs = b.wrecs[:0]
			for _, j := range idxs {
				en := &b.entries[j]
				if entryErr = k.applyEntryLocked(t, si, en.key, en.adds, en.removes, en.firstIsAdd); entryErr != nil {
					break
				}
				applied += int(en.adds + en.removes)
				if k.store != nil {
					b.wrecs = append(b.wrecs, wal.BatchEntry{Key: any(en.key).(string), Adds: en.adds, Removes: en.removes})
				}
			}
			// The applied prefix of the stripe is journaled even when a later
			// entry failed: the in-memory updates happened, so the log must
			// carry them.
			if k.store != nil && len(b.wrecs) > 0 {
				if _, jerr := k.store.AppendBatch(b.wrecs); jerr != nil {
					journalErr = fmt.Errorf("%w: %v", ErrWALAppend, jerr)
				}
			}
			return nil
		})
	}

	// One group-commit fsync covers every stripe's record.
	if k.store != nil && journalErr == nil {
		if err := k.store.Sync(); err != nil {
			journalErr = fmt.Errorf("%w: sync: %v", ErrWALAppend, err)
		}
	}
	if journalErr != nil {
		return applied, journalErr
	}
	return applied, entryErr
}

// ApplyDelta applies a coalesced run of events for one key: adds gross add
// events and removes gross remove events, moving the key's frequency by
// adds-removes in one step. A key whose events cancel out is still acquired
// (and left idle), exactly as the per-event sequence would. A key unknown
// to the profile is acquired only when the delta records at least one add
// event; otherwise it fails like Remove.
func (k *KeyedConcurrent[K]) ApplyDelta(key K, adds, removes uint64) error {
	if adds == 0 && removes == 0 {
		return nil
	}
	if k.deltas == nil {
		for i := uint64(0); i < adds; i++ {
			if err := k.Add(key); err != nil {
				return err
			}
		}
		for i := uint64(0); i < removes; i++ {
			if err := k.Remove(key); err != nil {
				return err
			}
		}
		return nil
	}
	if k.store != nil {
		if err := checkJournalableKey(any(key).(string)); err != nil {
			return err
		}
	}
	si := k.ids.StripeOf(key)
	var syncDue bool
	var journalErr error
	err := k.ids.BatchFunc(si, func(t idmap.StripeTxn[K]) error {
		if err := k.applyEntryLocked(t, si, key, adds, removes, adds > 0); err != nil {
			return err
		}
		if k.store != nil {
			rec := [1]wal.BatchEntry{{Key: any(key).(string), Adds: adds, Removes: removes}}
			var jerr error
			syncDue, jerr = k.store.AppendBatch(rec[:])
			if jerr != nil {
				journalErr = fmt.Errorf("%w: %v", ErrWALAppend, jerr)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	return k.finishJournal(syncDue, journalErr)
}

// applyEntryLocked applies one coalesced (key, gross adds, gross removes)
// delta while the key's stripe transaction is open: id resolution (with
// in-stripe eviction for new keys), the dense-profile delta and the
// recycling bookkeeping all happen as one atomic step under the stripe
// lock. acquire says whether an unknown key may be assigned an id — true
// exactly when the per-event path would have acquired it, i.e. when the
// key's first event was an add; an unknown key without it fails like
// Remove does.
func (k *KeyedConcurrent[K]) applyEntryLocked(t idmap.StripeTxn[K], si int, key K, adds, removes uint64, acquire bool) error {
	net := int64(adds) - int64(removes)
	var id int
	var isNew bool
	if acquire {
		var err error
		id, isNew, err = t.Acquire(key, k.evictFn())
		if err != nil {
			return err
		}
	} else {
		var ok bool
		id, ok = t.Get(key)
		if !ok {
			return fmt.Errorf("%w: %v", idmap.ErrUnknownKey, key)
		}
	}
	if err := k.deltas.ApplyDelta(Delta{Object: id, Delta: net, Adds: adds, Removes: removes}); err != nil {
		if isNew {
			t.Rollback(key, id)
		}
		return err
	}
	if k.recycle {
		old := k.freqs[id]
		now := old + net
		k.freqs[id] = now
		switch {
		case isNew && now == 0:
			k.zeros[si].add(key)
		case !isNew && old == 0 && now != 0:
			k.zeros[si].remove(key)
		case old != 0 && now == 0:
			k.zeros[si].add(key)
		}
	}
	return nil
}

// Track assigns key a dense id without counting anything, so a catalogue can
// be registered ahead of its events. A tracked key sits at frequency zero
// and is therefore an eviction candidate until its first Add.
func (k *KeyedConcurrent[K]) Track(key K) error {
	_, _, err := k.ids.AcquireFunc(key, k.evictFn(), func(id int, isNew bool) error {
		if k.recycle && isNew {
			k.zeros[k.ids.StripeOf(key)].add(key)
		}
		return nil
	})
	return err
}

// Count returns the current frequency of key (zero for unknown keys). The
// lookup and the read happen under the key's stripe lock, so the answer is
// consistent with concurrent updates to the same key.
func (k *KeyedConcurrent[K]) Count(key K) (int64, error) {
	var count int64
	_, err := k.ids.DenseIDFunc(key, func(id int) error {
		c, err := k.profile.Count(id)
		count = c
		return err
	})
	if err != nil {
		if errors.Is(err, idmap.ErrUnknownKey) {
			return 0, nil
		}
		return 0, err
	}
	return count, nil
}
