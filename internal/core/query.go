package core

import (
	"errors"
	"math"
)

// Query selects any subset of the profile's statistics to be answered
// together, from one consistent cut of the frequency multiset. The zero
// value selects nothing and yields an empty QueryResult.
//
// A zero or nil field means "not requested": TopK/BottomK request the K most
// or least frequent entries when positive, KthLargest lists 1-based ranks,
// Quantiles lists quantile arguments in [0, 1] (finite values outside are
// clamped, exactly like the Quantile getter), and Count lists object ids
// whose frequencies should be read. The JSON form is the composite-query
// wire format served by POST /v1/query.
type Query struct {
	Count        []int     `json:"count,omitempty"`
	Mode         bool      `json:"mode,omitempty"`
	Min          bool      `json:"min,omitempty"`
	TopK         int       `json:"top_k,omitempty"`
	BottomK      int       `json:"bottom_k,omitempty"`
	KthLargest   []int     `json:"kth_largest,omitempty"`
	Median       bool      `json:"median,omitempty"`
	Quantiles    []float64 `json:"quantiles,omitempty"`
	Majority     bool      `json:"majority,omitempty"`
	Distribution bool      `json:"distribution,omitempty"`
	Summary      bool      `json:"summary,omitempty"`
}

// Extreme is a Mode or Min answer inside a QueryResult: the representative
// entry plus how many objects tie with it.
type Extreme struct {
	Entry
	Ties int `json:"ties"`
}

// QuantileEntry is one Quantiles answer: the requested quantile argument and
// the entry holding it.
type QuantileEntry struct {
	Q float64 `json:"q"`
	Entry
}

// MajorityEntry is the Majority answer: Majority reports whether a strict
// majority holder exists, and Entry identifies it when it does.
type MajorityEntry struct {
	Entry
	Majority bool `json:"majority"`
}

// QueryResult carries the answers to exactly the statistics the Query
// selected; fields of unrequested statistics stay nil. All answers are taken
// from one consistent cut: each implementation documents how it pins the cut
// (one pass, one lock acquisition, one merged distribution, one quiesce).
type QueryResult struct {
	Counts       []Entry         `json:"counts,omitempty"`
	Mode         *Extreme        `json:"mode,omitempty"`
	Min          *Extreme        `json:"min,omitempty"`
	TopK         []Entry         `json:"top_k,omitempty"`
	BottomK      []Entry         `json:"bottom_k,omitempty"`
	KthLargest   []Entry         `json:"kth_largest,omitempty"`
	Median       *Entry          `json:"median,omitempty"`
	Quantiles    []QuantileEntry `json:"quantiles,omitempty"`
	Majority     *MajorityEntry  `json:"majority,omitempty"`
	Distribution []FreqCount     `json:"distribution,omitempty"`
	Summary      *Summary        `json:"summary,omitempty"`
}

// RequiresNonEmpty reports whether the query selects a statistic that has no
// answer on a profile with zero object slots.
func (q Query) RequiresNonEmpty() bool {
	return q.Mode || q.Min || q.Median || q.Majority ||
		len(q.Quantiles) > 0 || len(q.KthLargest) > 0
}

// NeedsDistribution reports whether answering the query involves the merged
// frequency distribution on implementations that must build one (sharded
// profiles); they build it once and share it across every rank answer.
func (q Query) NeedsDistribution() bool {
	return q.Median || q.Distribution || q.Summary ||
		len(q.Quantiles) > 0 || len(q.KthLargest) > 0
}

// Validate checks every query argument against capacity m before anything is
// evaluated, so a composite query fails whole or not at all. Violations wrap
// both ErrInvalidQuery and the same taxonomy class the corresponding getter
// returns (ErrBadRank, ErrObjectRange — both ErrOutOfRange; ArgClass
// recovers it), and an unanswerable statistic on an empty profile fails with
// ErrEmptyProfile exactly like the getter would.
func (q Query) Validate(m int) error {
	if q.TopK < 0 {
		return &argError{"top_k: ", errBadRank(q.TopK, m)}
	}
	if q.BottomK < 0 {
		return &argError{"bottom_k: ", errBadRank(q.BottomK, m)}
	}
	for _, k := range q.KthLargest {
		if k < 1 || k > m {
			return &argError{"kth_largest: ", errBadRank(k, m)}
		}
	}
	for _, qq := range q.Quantiles {
		if math.IsNaN(qq) {
			return &argError{"", CheckQuantile(qq)}
		}
	}
	for _, x := range q.Count {
		if x < 0 || x >= m {
			return &argError{"count: ", errObjectRange(x, m)}
		}
	}
	if m == 0 && q.RequiresNonEmpty() {
		return ErrEmptyProfile
	}
	return nil
}

// argError is a Validate argument violation: the argument's own taxonomy
// class, filed under ErrInvalidQuery as well.
type argError struct {
	field string
	class error
}

func (e *argError) Error() string {
	return ErrInvalidQuery.Error() + ": " + e.field + e.class.Error()
}

func (e *argError) Unwrap() []error { return []error{ErrInvalidQuery, e.class} }

// ArgClass returns the argument's own class when err is a Validate argument
// violation — the error the single-statistic getter reports for the same
// argument, which must not match ErrInvalidQuery — and err otherwise.
func ArgClass(err error) error {
	var ae *argError
	if errors.As(err, &ae) {
		return ae.class
	}
	return err
}

// Queryable is the getter surface EvalQuery needs — the Reader half of the
// root package's Profiler contract. It is satisfied by *Profile and by every
// profile variant.
type Queryable interface {
	Count(x int) (int64, error)
	Mode() (Entry, int, error)
	Min() (Entry, int, error)
	TopK(k int) []Entry
	BottomK(k int) []Entry
	KthLargest(k int) (Entry, error)
	Median() (Entry, error)
	Quantile(q float64) (Entry, error)
	Majority() (Entry, bool, error)
	Distribution() []FreqCount
	Summarize() Summary
	Cap() int
	Total() int64
}

// resultBacking is the single allocation behind every pointer field of a
// composite QueryResult — and, for the common dashboard case of a handful of
// quantiles, the Quantiles slice too — so a composite query costs one heap
// object for all its scalar answers instead of one each.
type resultBacking struct {
	mode, min Extreme
	median    Entry
	majority  MajorityEntry
	summary   Summary
	quantiles [4]QuantileEntry
}

// sharesBacking reports whether q selects more than one scalar answer (a
// few quantiles count as one). Only then is a resultBacking worth its size:
// a single-statistic query, which is what every wrapper's getter issues,
// allocates just its one answer.
func (q Query) sharesBacking() bool {
	n := 0
	for _, on := range [...]bool{q.Mode, q.Min, q.Median, q.Majority, q.Summary, len(q.Quantiles) > 0} {
		if on {
			n++
		}
	}
	return n > 1
}

// place stores a scalar answer: in its slot of the shared backing bk, or in
// an object of its own when bk is nil.
func place[T any](bk *resultBacking, slot func(*resultBacking) *T, v T) *T {
	var p *T
	if bk != nil {
		p = slot(bk)
	} else {
		p = new(T)
	}
	*p = v
	return p
}

// EvalQuery validates q and answers it getter by getter against r. It is the
// shared evaluation every implementation funnels through; pinning the cut —
// holding a lock, quiescing writers, snapshotting first — is the caller's
// job. On a plain *Profile the whole composite costs what the individual
// getters cost: O(1) per scalar statistic, O(k) for top/bottom-k, O(#blocks)
// for the distribution.
func EvalQuery(r Queryable, q Query) (QueryResult, error) {
	var res QueryResult
	if err := q.Validate(r.Cap()); err != nil {
		return res, err
	}
	var bk *resultBacking
	if q.sharesBacking() {
		bk = &resultBacking{}
	}
	if len(q.Count) > 0 {
		res.Counts = make([]Entry, len(q.Count))
		for i, x := range q.Count {
			f, err := r.Count(x)
			if err != nil {
				return QueryResult{}, err
			}
			res.Counts[i] = Entry{Object: x, Frequency: f}
		}
	}
	if q.Mode {
		e, ties, err := r.Mode()
		if err != nil {
			return QueryResult{}, err
		}
		res.Mode = place(bk, func(b *resultBacking) *Extreme { return &b.mode }, Extreme{Entry: e, Ties: ties})
	}
	if q.Min {
		e, ties, err := r.Min()
		if err != nil {
			return QueryResult{}, err
		}
		res.Min = place(bk, func(b *resultBacking) *Extreme { return &b.min }, Extreme{Entry: e, Ties: ties})
	}
	if q.TopK > 0 {
		res.TopK = r.TopK(q.TopK)
	}
	if q.BottomK > 0 {
		res.BottomK = r.BottomK(q.BottomK)
	}
	if len(q.KthLargest) > 0 {
		res.KthLargest = make([]Entry, len(q.KthLargest))
		for i, k := range q.KthLargest {
			e, err := r.KthLargest(k)
			if err != nil {
				return QueryResult{}, err
			}
			res.KthLargest[i] = e
		}
	}
	if q.Median {
		e, err := r.Median()
		if err != nil {
			return QueryResult{}, err
		}
		res.Median = place(bk, func(b *resultBacking) *Entry { return &b.median }, e)
	}
	if n := len(q.Quantiles); n > 0 {
		if bk != nil && n <= len(bk.quantiles) {
			res.Quantiles = bk.quantiles[:n:n]
		} else {
			res.Quantiles = make([]QuantileEntry, n)
		}
		for i, qq := range q.Quantiles {
			e, err := r.Quantile(qq)
			if err != nil {
				return QueryResult{}, err
			}
			res.Quantiles[i] = QuantileEntry{Q: qq, Entry: e}
		}
	}
	if q.Majority {
		e, ok, err := r.Majority()
		if err != nil {
			return QueryResult{}, err
		}
		res.Majority = place(bk, func(b *resultBacking) *MajorityEntry { return &b.majority }, MajorityEntry{Entry: e, Majority: ok})
	}
	if q.Distribution {
		res.Distribution = r.Distribution()
	}
	if q.Summary {
		res.Summary = place(bk, func(b *resultBacking) *Summary { return &b.summary }, r.Summarize())
	}
	return res, nil
}

// Query answers a composite query from the profile in one pass. A *Profile
// is single-goroutine, so the pass is trivially one consistent cut; the
// concurrency variants wrap this same evaluation in their own cut-pinning
// (read lock, merged distribution, quiesce).
func (p *Profile) Query(q Query) (QueryResult, error) {
	return EvalQuery(p, q)
}
