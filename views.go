package sprofile

import "sprofile/internal/core"

// The single-statistic getters of Reader and KeyedProfiler are views of the
// query plane: every variant already pins one consistent cut for its
// composite Query (or QueryKeys), and a getter is that query with one field
// selected. The wrappers embed one of the two adapters below instead of
// writing ten getters each; Count, Cap and Total stay native everywhere.

// querySource is what statViews reads through: the embedding type.
type querySource interface {
	Query(q Query) (QueryResult, error)
	Cap() int
}

// statViews answers Mode, Min, TopK, BottomK, KthLargest, Median, Quantile,
// Majority, Distribution and Summarize with a single-statistic Query.
type statViews struct{ src querySource }

// quantileErr is a Quantile getter's error for its failed one-quantile
// query on capacity m: the argument's own class, except that, as in
// Profile.Quantile, an empty profile is reported before a NaN argument
// (Validate checks the argument first).
func quantileErr(err error, m int) error {
	if m == 0 {
		return ErrEmptyProfile
	}
	return core.ArgClass(err)
}

// Mode returns an object with maximum frequency, that frequency, and how
// many objects share it.
func (v statViews) Mode() (Entry, int, error) {
	res, err := v.src.Query(Query{Mode: true})
	if err != nil {
		return Entry{}, 0, err
	}
	return res.Mode.Entry, res.Mode.Ties, nil
}

// Min returns an object with minimum frequency, that frequency, and how many
// objects share it.
func (v statViews) Min() (Entry, int, error) {
	res, err := v.src.Query(Query{Min: true})
	if err != nil {
		return Entry{}, 0, err
	}
	return res.Min.Entry, res.Min.Ties, nil
}

// TopK returns the k most frequent entries in non-increasing frequency
// order; k <= 0 yields nil.
func (v statViews) TopK(k int) []Entry {
	res, _ := v.src.Query(Query{TopK: k})
	return res.TopK
}

// BottomK returns the k least frequent entries in non-decreasing frequency
// order; k <= 0 yields nil.
func (v statViews) BottomK(k int) []Entry {
	res, _ := v.src.Query(Query{BottomK: k})
	return res.BottomK
}

// KthLargest returns the entry holding the k-th largest frequency (1-based).
func (v statViews) KthLargest(k int) (Entry, error) {
	res, err := v.src.Query(Query{KthLargest: []int{k}})
	if err != nil {
		return Entry{}, core.ArgClass(err)
	}
	return res.KthLargest[0], nil
}

// Median returns the lower-median entry of the frequency multiset.
func (v statViews) Median() (Entry, error) {
	res, err := v.src.Query(Query{Median: true})
	if err != nil {
		return Entry{}, err
	}
	return *res.Median, nil
}

// Quantile returns the entry at quantile q in [0, 1] (nearest rank; finite q
// outside the interval is clamped, NaN is an error).
func (v statViews) Quantile(q float64) (Entry, error) {
	res, err := v.src.Query(Query{Quantiles: []float64{q}})
	if err != nil {
		return Entry{}, quantileErr(err, v.src.Cap())
	}
	return res.Quantiles[0].Entry, nil
}

// Majority returns the object holding a strict majority of the total count,
// if one exists.
func (v statViews) Majority() (Entry, bool, error) {
	res, err := v.src.Query(Query{Majority: true})
	if err != nil {
		return Entry{}, false, err
	}
	return res.Majority.Entry, res.Majority.Majority, nil
}

// Distribution returns the frequency histogram in ascending frequency order.
func (v statViews) Distribution() []FreqCount {
	res, _ := v.src.Query(Query{Distribution: true})
	return res.Distribution
}

// Summarize returns aggregate statistics of the profile.
func (v statViews) Summarize() Summary {
	res, err := v.src.Query(Query{Summary: true})
	if err != nil {
		return Summary{}
	}
	return *res.Summary
}

// keyedQuerySource is what keyedStatViews reads through: the embedding type.
// queryDense answers a query on the dense profile behind the keys, pinning
// only the cut the dense profile pins itself.
type keyedQuerySource[K comparable] interface {
	QueryKeys(q KeyedQuery[K]) (KeyedQueryResult[K], error)
	queryDense(q Query) (QueryResult, error)
	Cap() int
}

// keyedStatViews is the keyed counterpart of statViews: each getter that
// names keys is a single-statistic QueryKeys, so its id→key translation
// shares the statistic's cut. Distribution and Summarize name no key and are
// one-field dense queries instead, so they never quiesce a keyed mapper.
type keyedStatViews[K comparable] struct{ src keyedQuerySource[K] }

// Mode returns a key with maximum frequency, that frequency, and how many
// objects share it.
func (v keyedStatViews[K]) Mode() (KeyedEntry[K], int, error) {
	res, err := v.src.QueryKeys(KeyedQuery[K]{Mode: true})
	if err != nil {
		return KeyedEntry[K]{}, 0, err
	}
	return res.Mode.KeyedEntry, res.Mode.Ties, nil
}

// Min returns a key with minimum frequency, that frequency, and how many
// objects share it. Slots not bound to a key report the zero value of K.
func (v keyedStatViews[K]) Min() (KeyedEntry[K], int, error) {
	res, err := v.src.QueryKeys(KeyedQuery[K]{Min: true})
	if err != nil {
		return KeyedEntry[K]{}, 0, err
	}
	return res.Min.KeyedEntry, res.Min.Ties, nil
}

// TopK returns the n most frequent entries in non-increasing frequency
// order. Untracked slots (frequency zero, never used) may appear when fewer
// than n keys have been added; their Key field is the zero value.
func (v keyedStatViews[K]) TopK(n int) []KeyedEntry[K] {
	res, _ := v.src.QueryKeys(KeyedQuery[K]{TopK: n})
	return res.TopK
}

// BottomK returns the n least frequent entries in non-decreasing frequency
// order, with the same untracked-slot caveat as TopK.
func (v keyedStatViews[K]) BottomK(n int) []KeyedEntry[K] {
	res, _ := v.src.QueryKeys(KeyedQuery[K]{BottomK: n})
	return res.BottomK
}

// KthLargest returns the keyed entry holding the k-th largest frequency
// (1-based: k=1 is a mode representative).
func (v keyedStatViews[K]) KthLargest(n int) (KeyedEntry[K], error) {
	res, err := v.src.QueryKeys(KeyedQuery[K]{KthLargest: []int{n}})
	if err != nil {
		return KeyedEntry[K]{}, core.ArgClass(err)
	}
	return res.KthLargest[0], nil
}

// Median returns the lower-median keyed entry over all m slots.
func (v keyedStatViews[K]) Median() (KeyedEntry[K], error) {
	res, err := v.src.QueryKeys(KeyedQuery[K]{Median: true})
	if err != nil {
		return KeyedEntry[K]{}, err
	}
	return *res.Median, nil
}

// Quantile returns the keyed entry at quantile q in [0, 1] over all m slots
// (nearest-rank definition).
func (v keyedStatViews[K]) Quantile(q float64) (KeyedEntry[K], error) {
	res, err := v.src.QueryKeys(KeyedQuery[K]{Quantiles: []float64{q}})
	if err != nil {
		return KeyedEntry[K]{}, quantileErr(err, v.src.Cap())
	}
	return res.Quantiles[0].KeyedEntry, nil
}

// Majority returns the key holding a strict majority of the total count, if
// one exists.
func (v keyedStatViews[K]) Majority() (KeyedEntry[K], bool, error) {
	res, err := v.src.QueryKeys(KeyedQuery[K]{Majority: true})
	if err != nil {
		return KeyedEntry[K]{}, false, err
	}
	return res.Majority.KeyedEntry, res.Majority.Majority, nil
}

// Distribution returns the frequency histogram in ascending frequency order.
func (v keyedStatViews[K]) Distribution() []FreqCount {
	res, _ := v.src.queryDense(Query{Distribution: true})
	return res.Distribution
}

// Summarize returns aggregate statistics of the underlying profile.
func (v keyedStatViews[K]) Summarize() Summary {
	res, err := v.src.queryDense(Query{Summary: true})
	if err != nil {
		return Summary{}
	}
	return *res.Summary
}
