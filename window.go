package sprofile

import (
	"time"

	"sprofile/internal/window"
)

// windowReader supplies the Reader half of the Profiler contract for both
// window adapters: the single-statistic getters are views of the windowed
// profile's Query, and Count, Cap and Total read it directly.
type windowReader struct {
	statViews
	p *Profile
}

func newWindowReader(p *Profile) windowReader { return windowReader{statViews: statViews{p}, p: p} }

// Profile returns the windowed profile for advanced queries (rank lookups,
// snapshots). The common statistics are available on the adapter directly.
func (r windowReader) Profile() *Profile { return r.p }

// Count returns the frequency of object x inside the window.
func (r windowReader) Count(x int) (int64, error) { return r.p.Count(x) }

// Query answers a composite query in one pass over the windowed profile,
// which reflects exactly the expiry sweep of the newest push: every selected
// statistic describes the same window contents. Window adapters are
// single-goroutine, so no locking is involved; a TimeWindow whose newest
// push is old can run an explicit expiry sweep first via QueryAt.
func (r windowReader) Query(q Query) (QueryResult, error) { return r.p.Query(q) }

// Cap returns the number of object slots.
func (r windowReader) Cap() int { return r.p.Cap() }

// Total returns the sum of all in-window frequencies.
func (r windowReader) Total() int64 { return r.p.Total() }

// Window maintains a count-based sliding window over a log stream on top of a
// Profile, as sketched in §2.3 of the paper: when a tuple falls out of the
// window it is replayed with the opposite action, so the profile always
// reflects exactly the last Size() tuples and every push remains O(1).
type Window struct {
	inner *window.Window
	windowReader
}

// NewWindow returns a sliding window of size tuples over profile p. The
// profile must not be updated directly while the window is in use.
func NewWindow(p *Profile, size int) (*Window, error) {
	if p == nil {
		return nil, errNilProfiler
	}
	w, err := window.New(p, size)
	if err != nil {
		return nil, err
	}
	return &Window{inner: w, windowReader: newWindowReader(p)}, nil
}

// MustNewWindow is NewWindow for callers with known-good arguments; it panics
// on error.
func MustNewWindow(p *Profile, size int) *Window {
	w, err := NewWindow(p, size)
	if err != nil {
		panic(err)
	}
	return w
}

// Push applies one tuple to the window, expiring the oldest tuple first when
// the window is full. On error the window and profile are left unchanged.
func (w *Window) Push(t Tuple) error { return w.inner.Push(t) }

// Add pushes an "add" event for object x.
func (w *Window) Add(x int) error { return w.Push(Tuple{Object: x, Action: ActionAdd}) }

// Remove pushes a "remove" event for object x.
func (w *Window) Remove(x int) error { return w.Push(Tuple{Object: x, Action: ActionRemove}) }

// Apply pushes one log tuple through the window; it is Push under the name
// the Updater interface requires, so a Window can stand in for any Profiler.
func (w *Window) Apply(t Tuple) error { return w.Push(t) }

// ApplyAll pushes tuples in order, stopping at the first error; it returns
// the number of tuples pushed.
func (w *Window) ApplyAll(tuples []Tuple) (int, error) { return w.inner.PushAll(tuples) }

// Size returns the window capacity in tuples.
func (w *Window) Size() int { return w.inner.Size() }

// Len returns the number of tuples currently inside the window.
func (w *Window) Len() int { return w.inner.Len() }

// Full reports whether every new push will expire the oldest tuple.
func (w *Window) Full() bool { return w.inner.Full() }

// Contents returns the tuples currently inside the window, oldest first.
func (w *Window) Contents() []Tuple { return w.inner.Contents() }

// Drain expires every tuple still in the window, returning the profile to an
// all-zero state.
func (w *Window) Drain() error { return w.inner.Drain() }

// Stats returns how many tuples have been pushed and how many have expired.
func (w *Window) Stats() (pushed, expired uint64) { return w.inner.Stats() }

// TimeWindow maintains a duration-based sliding window over a Profile: the
// profile always reflects exactly the tuples whose event times lie within the
// last Span() of logical time (the timestamp of the newest push). Expired
// tuples are replayed with the opposite action (paper §2.3), so the amortised
// cost per push stays O(1).
type TimeWindow struct {
	inner *window.TimeWindow
	windowReader
}

// NewTimeWindow returns a sliding window of the given time span over profile
// p. The profile must not be updated directly while the window is in use.
func NewTimeWindow(p *Profile, span time.Duration) (*TimeWindow, error) {
	if p == nil {
		return nil, errNilProfiler
	}
	w, err := window.NewTime(p, span)
	if err != nil {
		return nil, err
	}
	return &TimeWindow{inner: w, windowReader: newWindowReader(p)}, nil
}

// MustNewTimeWindow is NewTimeWindow for callers with known-good arguments;
// it panics on error.
func MustNewTimeWindow(p *Profile, span time.Duration) *TimeWindow {
	w, err := NewTimeWindow(p, span)
	if err != nil {
		panic(err)
	}
	return w
}

// PushAt applies one tuple stamped with the given event time. Timestamps must
// be non-decreasing.
func (w *TimeWindow) PushAt(t Tuple, at time.Time) error { return w.inner.PushAt(t, at) }

// Push applies one tuple stamped with the current wall-clock time.
func (w *TimeWindow) Push(t Tuple) error { return w.inner.Push(t) }

// AdvanceTo moves the window's logical time forward without adding a tuple,
// expiring everything that falls out of the span.
func (w *TimeWindow) AdvanceTo(now time.Time) error { return w.inner.AdvanceTo(now) }

// Add pushes an "add" event for object x stamped with the current wall-clock
// time. Replaying historical logs should use PushAt instead.
func (w *TimeWindow) Add(x int) error { return w.Push(Tuple{Object: x, Action: ActionAdd}) }

// Remove pushes a "remove" event for object x stamped with the current
// wall-clock time.
func (w *TimeWindow) Remove(x int) error { return w.Push(Tuple{Object: x, Action: ActionRemove}) }

// Apply pushes one log tuple stamped with the current wall-clock time.
func (w *TimeWindow) Apply(t Tuple) error { return w.Push(t) }

// ApplyAll pushes tuples in order stamped with the current wall-clock time,
// stopping at the first error; it returns the number of tuples pushed.
func (w *TimeWindow) ApplyAll(tuples []Tuple) (int, error) {
	for i, t := range tuples {
		if err := w.Push(t); err != nil {
			return i, err
		}
	}
	return len(tuples), nil
}

// QueryAt advances the window's logical time to now — expiring everything
// that falls out of the span, exactly like AdvanceTo — and then answers the
// composite query, so every selected statistic describes the window ending
// at now. It is the "one expiry sweep, then one cut" form of Query for
// callers whose newest push is older than the moment they are asking about.
func (w *TimeWindow) QueryAt(now time.Time, q Query) (QueryResult, error) {
	if err := w.inner.AdvanceTo(now); err != nil {
		return QueryResult{}, err
	}
	return w.windowReader.Query(q)
}

// Span returns the window length.
func (w *TimeWindow) Span() time.Duration { return w.inner.Span() }

// Len returns the number of tuples currently inside the window.
func (w *TimeWindow) Len() int { return w.inner.Len() }

// Stats returns how many tuples have been pushed and how many have expired.
func (w *TimeWindow) Stats() (pushed, expired uint64) { return w.inner.Stats() }
