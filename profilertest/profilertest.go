// Package profilertest provides a reusable conformance suite for
// implementations of the sprofile.Profiler interface, in the spirit of
// net/http/httptest: the root package runs it against every built-in variant
// (plain, concurrent, sharded, windowed, durable), and out-of-tree
// implementations can run it against theirs.
//
// The suite checks three things:
//
//   - error semantics: out-of-range objects, invalid actions, bad ranks,
//     empty profiles and strict-mode removals must fail with the package's
//     sentinel errors;
//   - query agreement: after a deterministic mixed add/remove stream, every
//     query must answer exactly what a plain *sprofile.Profile over the same
//     stream answers — frequencies, ties, ranks, quantiles, histogram and
//     summary alike;
//   - batch semantics: ApplyAll must stop at the first failing tuple and
//     report how many were applied.
package profilertest

import (
	"errors"
	"math"
	"testing"

	"sprofile"
	"sprofile/internal/stream"
)

// Factory builds a fresh profiler over m dense object ids with the given
// profile options. The conformance suite calls it many times with small m.
type Factory func(m int, opts ...sprofile.Option) (sprofile.Profiler, error)

// Run executes the full conformance battery against the implementation the
// factory produces. name labels the subtests.
func Run(t *testing.T, name string, factory Factory) {
	t.Helper()
	t.Run(name+"/ErrorSemantics", func(t *testing.T) { testErrorSemantics(t, factory) })
	t.Run(name+"/ArgValidation", func(t *testing.T) { testArgValidation(t, factory) })
	t.Run(name+"/StrictMode", func(t *testing.T) { testStrictMode(t, factory) })
	t.Run(name+"/MatchesReference", func(t *testing.T) { testMatchesReference(t, factory) })
	t.Run(name+"/Query", func(t *testing.T) { testQuery(t, factory) })
	t.Run(name+"/ApplyAll", func(t *testing.T) { testApplyAll(t, factory) })
}

func testErrorSemantics(t *testing.T, factory Factory) {
	p, err := factory(8)
	if err != nil {
		t.Fatalf("factory(8): %v", err)
	}
	for _, x := range []int{-1, 8, 1 << 20} {
		if err := p.Add(x); !errors.Is(err, sprofile.ErrObjectRange) {
			t.Errorf("Add(%d) = %v, want ErrObjectRange", x, err)
		}
		if err := p.Remove(x); !errors.Is(err, sprofile.ErrObjectRange) {
			t.Errorf("Remove(%d) = %v, want ErrObjectRange", x, err)
		}
		if _, err := p.Count(x); !errors.Is(err, sprofile.ErrObjectRange) {
			t.Errorf("Count(%d) = %v, want ErrObjectRange", x, err)
		}
	}
	if err := p.Apply(sprofile.Tuple{Object: 0, Action: sprofile.Action(0)}); err == nil {
		t.Errorf("Apply with invalid action succeeded")
	}
	for _, k := range []int{0, -1, 9} {
		if _, err := p.KthLargest(k); !errors.Is(err, sprofile.ErrBadRank) {
			t.Errorf("KthLargest(%d) = %v, want ErrBadRank", k, err)
		}
	}
	if got := p.TopK(0); got != nil {
		t.Errorf("TopK(0) = %v, want nil", got)
	}
	if got := p.BottomK(-1); got != nil {
		t.Errorf("BottomK(-1) = %v, want nil", got)
	}
	if got := p.TopK(100); len(got) != 8 {
		t.Errorf("TopK(100) returned %d entries, want 8", len(got))
	}
	if got := p.BottomK(100); len(got) != 8 {
		t.Errorf("BottomK(100) returned %d entries, want 8", len(got))
	}
	if p.Cap() != 8 {
		t.Errorf("Cap() = %d, want 8", p.Cap())
	}

	empty, err := factory(0)
	if err != nil {
		t.Fatalf("factory(0): %v", err)
	}
	if _, _, err := empty.Mode(); !errors.Is(err, sprofile.ErrEmptyProfile) {
		t.Errorf("Mode on empty profile = %v, want ErrEmptyProfile", err)
	}
	if _, _, err := empty.Min(); !errors.Is(err, sprofile.ErrEmptyProfile) {
		t.Errorf("Min on empty profile = %v, want ErrEmptyProfile", err)
	}
	if _, err := empty.Median(); !errors.Is(err, sprofile.ErrEmptyProfile) {
		t.Errorf("Median on empty profile = %v, want ErrEmptyProfile", err)
	}
	if _, err := empty.Quantile(0.5); !errors.Is(err, sprofile.ErrEmptyProfile) {
		t.Errorf("Quantile on empty profile = %v, want ErrEmptyProfile", err)
	}
	if _, _, err := empty.Majority(); !errors.Is(err, sprofile.ErrEmptyProfile) {
		t.Errorf("Majority on empty profile = %v, want ErrEmptyProfile", err)
	}
}

// testArgValidation pins the unified argument contract every variant shares:
//
//   - Quantile: NaN is an error resolving to ErrOutOfRange; finite arguments
//     outside [0, 1] are clamped to the endpoints, never an error;
//   - KthLargest: k outside [1, m] is ErrBadRank, which resolves to
//     ErrOutOfRange;
//   - TopK/BottomK: k <= 0 yields nil, k > m truncates to m entries;
//   - object ids outside [0, m) resolve to ErrOutOfRange.
func testArgValidation(t *testing.T, factory Factory) {
	p, err := factory(9)
	if err != nil {
		t.Fatalf("factory(9): %v", err)
	}
	for x := 0; x < 9; x++ {
		for i := 0; i <= x; i++ {
			if err := p.Add(x); err != nil {
				t.Fatal(err)
			}
		}
	}

	// A getter reports its argument's class alone: ErrInvalidQuery marks
	// malformed composite queries only, and error-code mappers test it
	// before ErrOutOfRange.
	if _, err := p.Quantile(math.NaN()); !errors.Is(err, sprofile.ErrOutOfRange) || errors.Is(err, sprofile.ErrInvalidQuery) {
		t.Errorf("Quantile(NaN) = %v, want ErrOutOfRange and not ErrInvalidQuery", err)
	}
	lo, err := p.Quantile(0)
	if err != nil {
		t.Fatalf("Quantile(0): %v", err)
	}
	hi, err := p.Quantile(1)
	if err != nil {
		t.Fatalf("Quantile(1): %v", err)
	}
	for q, want := range map[float64]int64{
		-0.3:         lo.Frequency,
		1.7:          hi.Frequency,
		math.Inf(-1): lo.Frequency,
		math.Inf(1):  hi.Frequency,
	} {
		got, err := p.Quantile(q)
		if err != nil {
			t.Errorf("Quantile(%g) = %v, want clamped answer", q, err)
			continue
		}
		if got.Frequency != want {
			t.Errorf("Quantile(%g) frequency = %d, want clamp to %d", q, got.Frequency, want)
		}
	}

	for _, k := range []int{0, -1, 10, 1 << 20} {
		if _, err := p.KthLargest(k); !errors.Is(err, sprofile.ErrBadRank) || !errors.Is(err, sprofile.ErrOutOfRange) || errors.Is(err, sprofile.ErrInvalidQuery) {
			t.Errorf("KthLargest(%d) = %v, want ErrBadRank (ErrOutOfRange) and not ErrInvalidQuery", k, err)
		}
	}
	if got := p.TopK(0); got != nil {
		t.Errorf("TopK(0) = %v, want nil", got)
	}
	if got := p.BottomK(-3); got != nil {
		t.Errorf("BottomK(-3) = %v, want nil", got)
	}
	if got := p.TopK(1 << 20); len(got) != 9 {
		t.Errorf("TopK(huge) returned %d entries, want 9", len(got))
	}
	if _, err := p.Count(9); !errors.Is(err, sprofile.ErrOutOfRange) {
		t.Errorf("Count(9) = %v, want ErrOutOfRange", err)
	}
}

// testQuery requires composite Query answers to be field-for-field identical
// to the individual getters, and pins the all-or-nothing validation
// semantics of malformed queries.
func testQuery(t *testing.T, factory Factory) {
	for _, m := range []int{1, 11, 40} {
		p, err := factory(m)
		if err != nil {
			t.Fatalf("factory(%d): %v", m, err)
		}
		rng := stream.NewRNG(uint64(m))
		for i := 0; i < 300; i++ {
			x := rng.Intn(m)
			action := sprofile.ActionAdd
			if rng.Bernoulli(0.3) {
				action = sprofile.ActionRemove
			}
			if err := p.Apply(sprofile.Tuple{Object: x, Action: action}); err != nil {
				t.Fatal(err)
			}
		}

		q := sprofile.Query{
			Count:        []int{0, m - 1},
			Mode:         true,
			Min:          true,
			TopK:         3,
			BottomK:      2,
			KthLargest:   []int{1, m},
			Median:       true,
			Quantiles:    []float64{0, 0.5, 0.65, 1, -0.3, 1.7},
			Majority:     true,
			Distribution: true,
			Summary:      true,
		}
		res, err := sprofile.QueryProfiler(p, q)
		if err != nil {
			t.Fatalf("m=%d Query: %v", m, err)
		}

		for i, x := range q.Count {
			want, _ := p.Count(x)
			if res.Counts[i].Object != x || res.Counts[i].Frequency != want {
				t.Errorf("m=%d Counts[%d] = %+v, want object %d frequency %d", m, i, res.Counts[i], x, want)
			}
		}
		mode, ties, _ := p.Mode()
		if res.Mode == nil || res.Mode.Frequency != mode.Frequency || res.Mode.Ties != ties {
			t.Errorf("m=%d Mode = %+v, want (%+v, %d)", m, res.Mode, mode, ties)
		}
		minE, minTies, _ := p.Min()
		if res.Min == nil || res.Min.Frequency != minE.Frequency || res.Min.Ties != minTies {
			t.Errorf("m=%d Min = %+v, want (%+v, %d)", m, res.Min, minE, minTies)
		}
		wantTop := p.TopK(3)
		if len(res.TopK) != len(wantTop) {
			t.Errorf("m=%d TopK length %d, want %d", m, len(res.TopK), len(wantTop))
		} else {
			for i := range wantTop {
				if res.TopK[i].Frequency != wantTop[i].Frequency {
					t.Errorf("m=%d TopK[%d] = %+v, want frequency %d", m, i, res.TopK[i], wantTop[i].Frequency)
				}
			}
		}
		wantBottom := p.BottomK(2)
		if len(res.BottomK) != len(wantBottom) {
			t.Errorf("m=%d BottomK length %d, want %d", m, len(res.BottomK), len(wantBottom))
		}
		for i, k := range q.KthLargest {
			want, _ := p.KthLargest(k)
			if res.KthLargest[i].Frequency != want.Frequency {
				t.Errorf("m=%d KthLargest[%d]=k%d = %+v, want frequency %d", m, i, k, res.KthLargest[i], want.Frequency)
			}
		}
		wantMed, _ := p.Median()
		if res.Median == nil || res.Median.Frequency != wantMed.Frequency {
			t.Errorf("m=%d Median = %+v, want frequency %d", m, res.Median, wantMed.Frequency)
		}
		for i, qq := range q.Quantiles {
			want, _ := p.Quantile(qq)
			if res.Quantiles[i].Q != qq || res.Quantiles[i].Frequency != want.Frequency {
				t.Errorf("m=%d Quantiles[%d]=%g = %+v, want frequency %d", m, i, qq, res.Quantiles[i], want.Frequency)
			}
		}
		wantMaj, wantOK, _ := p.Majority()
		if res.Majority == nil || res.Majority.Majority != wantOK || (wantOK && res.Majority.Frequency != wantMaj.Frequency) {
			t.Errorf("m=%d Majority = %+v, want (%+v, %v)", m, res.Majority, wantMaj, wantOK)
		}
		wantDist := p.Distribution()
		if len(res.Distribution) != len(wantDist) {
			t.Errorf("m=%d Distribution length %d, want %d", m, len(res.Distribution), len(wantDist))
		} else {
			for i := range wantDist {
				if res.Distribution[i] != wantDist[i] {
					t.Errorf("m=%d Distribution[%d] = %+v, want %+v", m, i, res.Distribution[i], wantDist[i])
				}
			}
		}
		if res.Summary == nil || *res.Summary != p.Summarize() {
			t.Errorf("m=%d Summary = %+v, want %+v", m, res.Summary, p.Summarize())
		}

		// Unrequested statistics stay nil.
		empty, err := sprofile.QueryProfiler(p, sprofile.Query{})
		if err != nil {
			t.Fatalf("empty query: %v", err)
		}
		if empty.Mode != nil || empty.TopK != nil || empty.Summary != nil || empty.Counts != nil {
			t.Errorf("m=%d empty query filled fields: %+v", m, empty)
		}

		// Malformed selections fail whole with ErrInvalidQuery plus the
		// offending argument's class; nothing is evaluated.
		for _, bad := range []sprofile.Query{
			{TopK: -1},
			{BottomK: -2},
			{KthLargest: []int{0}},
			{KthLargest: []int{m + 1}},
			{Quantiles: []float64{math.NaN()}},
			{Count: []int{m}},
			{Count: []int{-1}},
		} {
			if _, err := sprofile.QueryProfiler(p, bad); !errors.Is(err, sprofile.ErrInvalidQuery) || !errors.Is(err, sprofile.ErrOutOfRange) {
				t.Errorf("m=%d Query(%+v) = %v, want ErrInvalidQuery wrapping ErrOutOfRange", m, bad, err)
			}
		}
	}

	// Statistics that need at least one slot fail with ErrEmptyProfile on an
	// empty profile, exactly like the getters.
	empty, err := factory(0)
	if err != nil {
		t.Fatalf("factory(0): %v", err)
	}
	for _, q := range []sprofile.Query{{Mode: true}, {Min: true}, {Median: true}, {Quantiles: []float64{0.5}}, {Majority: true}} {
		if _, err := sprofile.QueryProfiler(empty, q); !errors.Is(err, sprofile.ErrEmptyProfile) {
			t.Errorf("empty Query(%+v) = %v, want ErrEmptyProfile", q, err)
		}
	}
	if res, err := sprofile.QueryProfiler(empty, sprofile.Query{Summary: true, Distribution: true, TopK: 5}); err != nil {
		t.Errorf("empty Query(summary) = %v, want nil", err)
	} else if res.Summary == nil || len(res.TopK) != 0 {
		t.Errorf("empty Query(summary) = %+v", res)
	}
}

func testStrictMode(t *testing.T, factory Factory) {
	p, err := factory(4, sprofile.WithStrictNonNegative())
	if err != nil {
		t.Fatalf("factory(4, strict): %v", err)
	}
	if err := p.Remove(1); !errors.Is(err, sprofile.ErrNegativeFrequency) {
		t.Fatalf("strict Remove at zero = %v, want ErrNegativeFrequency", err)
	}
	if err := p.Add(1); err != nil {
		t.Fatal(err)
	}
	if err := p.Remove(1); err != nil {
		t.Fatalf("strict Remove at one = %v, want nil", err)
	}
	if got := p.Total(); got != 0 {
		t.Fatalf("Total after add+remove = %d, want 0", got)
	}
}

// testMatchesReference replays deterministic mixed streams into the
// implementation and into a plain reference Profile and requires every query
// to agree.
func testMatchesReference(t *testing.T, factory Factory) {
	// 11 and 40 slots exercise both tiny profiles (many ties) and quantile
	// rank rounding (q*(m-1) landing on .5 boundaries and above).
	for _, m := range []int{1, 11, 40} {
		for seed := uint64(1); seed <= 3; seed++ {
			p, err := factory(m)
			if err != nil {
				t.Fatalf("factory(%d): %v", m, err)
			}
			ref := sprofile.MustNew(m)
			rng := stream.NewRNG(seed)
			n := 400 + int(seed)*137
			for i := 0; i < n; i++ {
				x := rng.Intn(m)
				action := sprofile.ActionAdd
				if rng.Bernoulli(0.35) {
					action = sprofile.ActionRemove
				}
				tp := sprofile.Tuple{Object: x, Action: action}
				if err := p.Apply(tp); err != nil {
					t.Fatalf("m=%d seed=%d apply %d: %v", m, seed, i, err)
				}
				if err := ref.Apply(tp); err != nil {
					t.Fatal(err)
				}
			}
			compareWithReference(t, p, ref)
		}
	}
}

// compareWithReference checks every Reader query of p against the reference
// profile. Representatives may differ between implementations (ties are
// broken arbitrarily), so object identity is validated through the reference
// profile's Count rather than compared directly.
func compareWithReference(t *testing.T, p sprofile.Profiler, ref *sprofile.Profile) {
	t.Helper()
	m := ref.Cap()
	if got, want := p.Cap(), ref.Cap(); got != want {
		t.Fatalf("Cap: got %d, want %d", got, want)
	}
	if got, want := p.Total(), ref.Total(); got != want {
		t.Fatalf("Total: got %d, want %d", got, want)
	}
	for x := 0; x < m; x++ {
		got, err := p.Count(x)
		if err != nil {
			t.Fatalf("Count(%d): %v", x, err)
		}
		want, _ := ref.Count(x)
		if got != want {
			t.Fatalf("Count(%d): got %d, want %d", x, got, want)
		}
	}

	gotMode, gotTies, err := p.Mode()
	if err != nil {
		t.Fatalf("Mode: %v", err)
	}
	wantMode, wantTies, _ := ref.Mode()
	if gotMode.Frequency != wantMode.Frequency || gotTies != wantTies {
		t.Fatalf("Mode: got (%d, %d ties), want (%d, %d ties)",
			gotMode.Frequency, gotTies, wantMode.Frequency, wantTies)
	}
	if f, _ := ref.Count(gotMode.Object); f != gotMode.Frequency {
		t.Fatalf("Mode representative %d does not hold frequency %d", gotMode.Object, gotMode.Frequency)
	}

	gotMin, gotMinTies, err := p.Min()
	if err != nil {
		t.Fatalf("Min: %v", err)
	}
	wantMin, wantMinTies, _ := ref.Min()
	if gotMin.Frequency != wantMin.Frequency || gotMinTies != wantMinTies {
		t.Fatalf("Min: got (%d, %d ties), want (%d, %d ties)",
			gotMin.Frequency, gotMinTies, wantMin.Frequency, wantMinTies)
	}

	for k := 1; k <= m; k++ {
		got, err := p.KthLargest(k)
		if err != nil {
			t.Fatalf("KthLargest(%d): %v", k, err)
		}
		want, _ := ref.KthLargest(k)
		if got.Frequency != want.Frequency {
			t.Fatalf("KthLargest(%d): got %d, want %d", k, got.Frequency, want.Frequency)
		}
		if f, _ := ref.Count(got.Object); f != got.Frequency {
			t.Fatalf("KthLargest(%d) representative %d does not hold frequency %d", k, got.Object, got.Frequency)
		}
	}

	gotMed, err := p.Median()
	if err != nil {
		t.Fatalf("Median: %v", err)
	}
	wantMed, _ := ref.Median()
	if gotMed.Frequency != wantMed.Frequency {
		t.Fatalf("Median: got %d, want %d", gotMed.Frequency, wantMed.Frequency)
	}

	// 0.7 and 0.65 land q*(m-1) on fractional ranks; truncating instead of
	// taking the nearest rank fails here.
	for _, q := range []float64{0, 0.25, 0.5, 0.65, 0.7, 0.75, 0.99, 1, -0.3, 1.7} {
		got, err := p.Quantile(q)
		if err != nil {
			t.Fatalf("Quantile(%g): %v", q, err)
		}
		want, _ := ref.Quantile(q)
		if got.Frequency != want.Frequency {
			t.Fatalf("Quantile(%g): got %d, want %d", q, got.Frequency, want.Frequency)
		}
	}

	gotMaj, gotOK, err := p.Majority()
	if err != nil {
		t.Fatalf("Majority: %v", err)
	}
	wantMaj, wantOK, _ := ref.Majority()
	if gotOK != wantOK || (gotOK && gotMaj.Frequency != wantMaj.Frequency) {
		t.Fatalf("Majority: got (%+v, %v), want (%+v, %v)", gotMaj, gotOK, wantMaj, wantOK)
	}

	gotDist, wantDist := p.Distribution(), ref.Distribution()
	if len(gotDist) != len(wantDist) {
		t.Fatalf("Distribution length: got %d, want %d", len(gotDist), len(wantDist))
	}
	for i := range wantDist {
		if gotDist[i] != wantDist[i] {
			t.Fatalf("Distribution[%d]: got %+v, want %+v", i, gotDist[i], wantDist[i])
		}
	}

	for _, k := range []int{1, 3, m} {
		gotTop, wantTop := p.TopK(k), ref.TopK(k)
		if len(gotTop) != len(wantTop) {
			t.Fatalf("TopK(%d) length: got %d, want %d", k, len(gotTop), len(wantTop))
		}
		for i := range wantTop {
			if gotTop[i].Frequency != wantTop[i].Frequency {
				t.Fatalf("TopK(%d)[%d]: got %d, want %d", k, i, gotTop[i].Frequency, wantTop[i].Frequency)
			}
		}
		gotBottom, wantBottom := p.BottomK(k), ref.BottomK(k)
		if len(gotBottom) != len(wantBottom) {
			t.Fatalf("BottomK(%d) length: got %d, want %d", k, len(gotBottom), len(wantBottom))
		}
		for i := range wantBottom {
			if gotBottom[i].Frequency != wantBottom[i].Frequency {
				t.Fatalf("BottomK(%d)[%d]: got %d, want %d", k, i, gotBottom[i].Frequency, wantBottom[i].Frequency)
			}
		}
	}

	gotSum, wantSum := p.Summarize(), ref.Summarize()
	if gotSum != wantSum {
		t.Fatalf("Summarize: got %+v, want %+v", gotSum, wantSum)
	}
}

func testApplyAll(t *testing.T, factory Factory) {
	p, err := factory(4)
	if err != nil {
		t.Fatalf("factory(4): %v", err)
	}
	ok := []sprofile.Tuple{
		{Object: 0, Action: sprofile.ActionAdd},
		{Object: 3, Action: sprofile.ActionAdd},
		{Object: 0, Action: sprofile.ActionAdd},
		{Object: 3, Action: sprofile.ActionRemove},
	}
	n, err := p.ApplyAll(ok)
	if err != nil || n != len(ok) {
		t.Fatalf("ApplyAll = (%d, %v), want (%d, nil)", n, err, len(ok))
	}
	if got := p.Total(); got != 2 {
		t.Fatalf("Total after batch = %d, want 2", got)
	}

	bad := []sprofile.Tuple{
		{Object: 1, Action: sprofile.ActionAdd},
		{Object: 99, Action: sprofile.ActionAdd}, // out of range
		{Object: 2, Action: sprofile.ActionAdd},
	}
	n, err = p.ApplyAll(bad)
	if !errors.Is(err, sprofile.ErrObjectRange) {
		t.Fatalf("ApplyAll with bad tuple: err = %v, want ErrObjectRange", err)
	}
	if n != 1 {
		t.Fatalf("ApplyAll with bad tuple applied %d, want 1", n)
	}
	if got := p.Total(); got != 3 {
		t.Fatalf("Total after failed batch = %d, want 3 (prefix applied)", got)
	}
}
